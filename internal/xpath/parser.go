package xpath

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent XPath 1.0 parser. The XQuery package
// embeds it to parse the path and expression fragments of FLWR queries.
type Parser struct {
	lex *Lexer
	tok Token // lookahead
}

// NewParser returns a parser reading from lex. The lexer's position is
// advanced as the parser consumes tokens.
func NewParser(lex *Lexer) (*Parser, error) {
	p := &Parser{lex: lex}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse parses a complete XPath expression (usually a location path) and
// requires all input to be consumed.
func Parse(src string) (Expr, error) {
	p, err := NewParser(NewLexer(src))
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, fmt.Errorf("xpath: trailing input at offset %d: %s", p.tok.Pos, p.tok)
	}
	return e, nil
}

// Tok returns the current lookahead token (used by the XQuery parser).
func (p *Parser) Tok() Token { return p.tok }

// Advance consumes the lookahead token (used by the XQuery parser).
func (p *Parser) Advance() error { return p.advance() }

// Lexer exposes the underlying lexer (used by the XQuery parser for
// element constructors, which are not token-regular).
func (p *Parser) Lexer() *Lexer { return p.lex }

// ResetLookahead re-primes the lookahead after the caller moved the lexer.
func (p *Parser) ResetLookahead() error { return p.advance() }

func (p *Parser) advance() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) expect(k TokKind, what string) error {
	if p.tok.Kind != k {
		return fmt.Errorf("xpath: expected %s at offset %d, found %s", what, p.tok.Pos, p.tok)
	}
	return p.advance()
}

// ParseExpr parses an OrExpr, leaving the first unconsumed token in Tok().
func (p *Parser) ParseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokIdent && p.tok.Text == "or" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{OpOr, l, r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokIdent && p.tok.Text == "and" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = Binary{OpAnd, l, r}
	}
	return l, nil
}

func (p *Parser) parseEquality() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.tok.Kind == TokEq:
			op = OpEq
		case p.tok.Kind == TokNeq:
			op = OpNeq
		case p.tok.Kind == TokIdent && p.tok.Text == "eq":
			op = OpEq
		case p.tok.Kind == TokIdent && p.tok.Text == "ne":
			op = OpNeq
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = Binary{op, l, r}
	}
}

func (p *Parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.tok.Kind == TokLt:
			op = OpLt
		case p.tok.Kind == TokLe:
			op = OpLe
		case p.tok.Kind == TokGt:
			op = OpGt
		case p.tok.Kind == TokGe:
			op = OpGe
		case p.tok.Kind == TokIdent && p.tok.Text == "lt":
			op = OpLt
		case p.tok.Kind == TokIdent && p.tok.Text == "le":
			op = OpLe
		case p.tok.Kind == TokIdent && p.tok.Text == "gt":
			op = OpGt
		case p.tok.Kind == TokIdent && p.tok.Text == "ge":
			op = OpGe
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = Binary{op, l, r}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch p.tok.Kind {
		case TokPlus:
			op = OpAdd
		case TokMinus:
			op = OpSub
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = Binary{op, l, r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.tok.Kind == TokStar:
			op = OpMul
		case p.tok.Kind == TokIdent && p.tok.Text == "div":
			op = OpDiv
		case p.tok.Kind == TokIdent && p.tok.Text == "mod":
			op = OpMod
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = Binary{op, l, r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.tok.Kind == TokMinus {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{e}, nil
	}
	return p.parseUnion()
}

func (p *Parser) parseUnion() (Expr, error) {
	l, err := p.parsePathExpr()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokPipe {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parsePathExpr()
		if err != nil {
			return nil, err
		}
		l = Binary{OpUnion, l, r}
	}
	return l, nil
}

// startsPrimary reports whether the lookahead starts a filter (primary)
// expression rather than a location path.
func (p *Parser) startsPrimary() bool {
	switch p.tok.Kind {
	case TokLiteral, TokNumber, TokDollar, TokLParen:
		return true
	case TokIdent:
		// A function call — unless it is a node-type test.
		if isNodeType(p.tok.Text) {
			return false
		}
		save := p.lex.Pos()
		tok := p.tok
		_ = p.advance()
		isCall := p.tok.Kind == TokLParen
		p.lex.SetPos(save)
		p.tok = tok
		return isCall
	}
	return false
}

func isNodeType(s string) bool {
	switch s {
	case "node", "text", "comment", "processing-instruction":
		return true
	}
	return false
}

func (p *Parser) parsePathExpr() (Expr, error) {
	if p.startsPrimary() {
		prim, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		var preds []Expr
		for p.tok.Kind == TokLBracket {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			preds = append(preds, pred)
		}
		if p.tok.Kind != TokSlash && p.tok.Kind != TokSlashSlash {
			if len(preds) == 0 {
				return prim, nil
			}
			return PathExpr{Filter: prim, FilterPreds: preds}, nil
		}
		pe := PathExpr{Filter: prim, FilterPreds: preds}
		if p.tok.Kind == TokSlashSlash {
			pe.Path.Steps = append(pe.Path.Steps, Step{Axis: DescendantOrSelf, Test: NodeTestNode})
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.parseRelativePath(&pe.Path); err != nil {
			return nil, err
		}
		return pe, nil
	}
	var path Path
	switch p.tok.Kind {
	case TokSlash:
		path.Absolute = true
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.startsStep() {
			return PathExpr{Path: path}, nil // bare "/"
		}
	case TokSlashSlash:
		path.Absolute = true
		path.Steps = append(path.Steps, Step{Axis: DescendantOrSelf, Test: NodeTestNode})
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.parseRelativePath(&path); err != nil {
		return nil, err
	}
	return PathExpr{Path: path}, nil
}

func (p *Parser) startsStep() bool {
	switch p.tok.Kind {
	case TokIdent, TokStar, TokAt, TokDot, TokDotDot:
		return true
	}
	return false
}

func (p *Parser) parseRelativePath(path *Path) error {
	for {
		st, err := p.parseStep()
		if err != nil {
			return err
		}
		path.Steps = append(path.Steps, st)
		switch p.tok.Kind {
		case TokSlash:
			if err := p.advance(); err != nil {
				return err
			}
		case TokSlashSlash:
			path.Steps = append(path.Steps, Step{Axis: DescendantOrSelf, Test: NodeTestNode})
			if err := p.advance(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (p *Parser) parseStep() (Step, error) {
	switch p.tok.Kind {
	case TokDot:
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		return Step{Axis: Self, Test: NodeTestNode}, nil
	case TokDotDot:
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		return Step{Axis: Parent, Test: NodeTestNode}, nil
	}

	st := Step{Axis: Child}
	if p.tok.Kind == TokAt {
		st.Axis = Attribute
		if err := p.advance(); err != nil {
			return Step{}, err
		}
	} else if p.tok.Kind == TokIdent {
		// Possible explicit axis: ident followed by ::.
		if ax, ok := AxisByName(p.tok.Text); ok {
			save := p.lex.Pos()
			tok := p.tok
			if err := p.advance(); err != nil {
				return Step{}, err
			}
			if p.tok.Kind == TokColonColon {
				st.Axis = ax
				if err := p.advance(); err != nil {
					return Step{}, err
				}
			} else {
				p.lex.SetPos(save)
				p.tok = tok
			}
		}
	}

	// Node test.
	switch p.tok.Kind {
	case TokStar:
		st.Test = NodeTest{Kind: TestStar}
		if err := p.advance(); err != nil {
			return Step{}, err
		}
	case TokIdent:
		// Per XPath 1.0, node() / text() / comment() /
		// processing-instruction() are node-type tests only when followed
		// by parentheses; a bare name — even "text" — is a name test
		// (XMark really has a <text> element).
		name := p.tok.Text
		save := p.lex.Pos()
		tok := p.tok
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		if isNodeType(name) && p.tok.Kind == TokLParen {
			if err := p.advance(); err != nil {
				return Step{}, err
			}
			// processing-instruction may take a literal argument.
			if p.tok.Kind == TokLiteral {
				if err := p.advance(); err != nil {
					return Step{}, err
				}
			}
			if err := p.expect(TokRParen, ")"); err != nil {
				return Step{}, err
			}
			switch name {
			case "node":
				st.Test = NodeTest{Kind: TestNode}
			case "text":
				st.Test = NodeTest{Kind: TestText}
			case "comment":
				st.Test = NodeTest{Kind: TestComment}
			default:
				st.Test = NodeTest{Kind: TestPI}
			}
		} else {
			p.lex.SetPos(save)
			p.tok = tok
			st.Test = NameTest(name)
			if err := p.advance(); err != nil {
				return Step{}, err
			}
		}
	default:
		return Step{}, fmt.Errorf("xpath: expected node test at offset %d, found %s", p.tok.Pos, p.tok)
	}

	for p.tok.Kind == TokLBracket {
		pred, err := p.parsePredicate()
		if err != nil {
			return Step{}, err
		}
		st.Preds = append(st.Preds, pred)
	}
	return st, nil
}

func (p *Parser) parsePredicate() (Expr, error) {
	if err := p.expect(TokLBracket, "["); err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokRBracket, "]"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokLiteral:
		e := Literal{p.tok.Text}
		return e, p.advance()
	case TokNumber:
		f, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("xpath: bad number %q at offset %d", p.tok.Text, p.tok.Pos)
		}
		e := Number{f}
		return e, p.advance()
	case TokDollar:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokIdent {
			return nil, fmt.Errorf("xpath: expected variable name at offset %d", p.tok.Pos)
		}
		e := Var{p.tok.Text}
		return e, p.advance()
	case TokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		var args []Expr
		if p.tok.Kind != TokRParen {
			for {
				a, err := p.ParseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok.Kind != TokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return Call{Name: name, Args: args}, nil
	}
	return nil, fmt.Errorf("xpath: unexpected token %s at offset %d", p.tok, p.tok.Pos)
}
