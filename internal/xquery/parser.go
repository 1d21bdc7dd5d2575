package xquery

import (
	"fmt"
	"strings"

	"xmlproj/internal/xpath"
)

// Two query forms beyond the paper's grammar are needed by the XMark
// benchmark queries and are handled natively:
//
//   - FuncQ: an aggregate applied to a full query, e.g. count(for … ),
//     distinct-values(path) (Q5, Q10, Q20);
//   - Quantified: some $x in q satisfies q (Q4).

// FuncQ applies a function of a sequence (xpath.Func.Seq) to query
// arguments, which may be FLWR expressions.
type FuncQ struct {
	Name string
	Args []Query
}

// Quantified is some/every $Var in In satisfies Sat.
type Quantified struct {
	Every bool
	Var   string
	In    Query
	Sat   Query
}

func (FuncQ) queryNode()      {}
func (Quantified) queryNode() {}

func (f FuncQ) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (q Quantified) String() string {
	kw := "some"
	if q.Every {
		kw = "every"
	}
	return fmt.Sprintf("%s $%s in %s satisfies %s", kw, q.Var, q.In, q.Sat)
}

// Parse parses a FLWR-core query.
func Parse(src string) (Query, error) {
	lex := xpath.NewLexer(src)
	p, err := xpath.NewParser(lex)
	if err != nil {
		return nil, err
	}
	qp := &qparser{p: p}
	q, err := qp.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.Tok().Kind != xpath.TokEOF {
		return nil, fmt.Errorf("xquery: trailing input at offset %d: %s", p.Tok().Pos, p.Tok())
	}
	return q, nil
}

type qparser struct {
	p *xpath.Parser
}

func (qp *qparser) tok() xpath.Token { return qp.p.Tok() }

func (qp *qparser) advance() error { return qp.p.Advance() }

func (qp *qparser) expect(k xpath.TokKind, what string) error {
	if qp.tok().Kind != k {
		return fmt.Errorf("xquery: expected %s at offset %d, found %s", what, qp.tok().Pos, qp.tok())
	}
	return qp.advance()
}

func (qp *qparser) expectKeyword(kw string) error {
	if qp.tok().Kind != xpath.TokIdent || qp.tok().Text != kw {
		return fmt.Errorf("xquery: expected %q at offset %d, found %s", kw, qp.tok().Pos, qp.tok())
	}
	return qp.advance()
}

func (qp *qparser) atKeyword(kw string) bool {
	return qp.tok().Kind == xpath.TokIdent && qp.tok().Text == kw
}

// parseQuery parses a comma-separated sequence of single expressions.
func (qp *qparser) parseQuery() (Query, error) {
	first, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}
	if qp.tok().Kind != xpath.TokComma {
		return first, nil
	}
	seq := Sequence{Items: []Query{first}}
	for qp.tok().Kind == xpath.TokComma {
		if err := qp.advance(); err != nil {
			return nil, err
		}
		item, err := qp.parseSingle()
		if err != nil {
			return nil, err
		}
		seq.Items = append(seq.Items, item)
	}
	return seq, nil
}

func (qp *qparser) parseSingle() (Query, error) {
	t := qp.tok()
	switch {
	case t.Kind == xpath.TokIdent && (t.Text == "for" || t.Text == "let") && qp.nextIsDollar():
		return qp.parseFLWR()
	case t.Kind == xpath.TokIdent && (t.Text == "some" || t.Text == "every") && qp.nextIsDollar():
		return qp.parseQuantified()
	case t.Kind == xpath.TokIdent && t.Text == "if":
		return qp.parseIf()
	case t.Kind == xpath.TokLt:
		return qp.parseElement()
	case t.Kind == xpath.TokIdent && xpath.Lookup(t.Text).QueryOnly && qp.nextIsLParen():
		// A function whose result only XQuery can hold is always parsed
		// at the query level.
		return qp.parseFuncQ()
	default:
		// Try a plain XPath expression first — it covers arithmetic over
		// parenthesised expressions and aggregate calls over paths (e.g.
		// zero-or-one(p) * 2 <= q). If that fails, backtrack and try the
		// query-level constructs that XPath cannot express: (), sequence
		// parentheses, and aggregates over FLWR arguments.
		start := t.Pos
		e, xerr := qp.p.ParseExpr()
		if xerr == nil {
			return Expr{E: e}, nil
		}
		qp.p.Lexer().SetPos(start)
		if err := qp.p.ResetLookahead(); err != nil {
			return nil, err
		}
		switch {
		case qp.tok().Kind == xpath.TokLParen:
			if err := qp.advance(); err != nil {
				return nil, err
			}
			if qp.tok().Kind == xpath.TokRParen {
				return Empty{}, qp.advance()
			}
			q, err := qp.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := qp.expect(xpath.TokRParen, ")"); err != nil {
				return nil, err
			}
			return q, nil
		case qp.tok().Kind == xpath.TokIdent && xpath.Lookup(qp.tok().Text).Seq && qp.nextIsLParen():
			return qp.parseFuncQ()
		}
		return nil, xerr
	}
}

// nextIsDollar peeks whether the token after the current keyword is '$'.
func (qp *qparser) nextIsDollar() bool {
	lex := qp.p.Lexer()
	save := lex.Pos()
	defer lex.SetPos(save)
	t, err := lex.Next()
	return err == nil && t.Kind == xpath.TokDollar
}

func (qp *qparser) nextIsLParen() bool {
	lex := qp.p.Lexer()
	save := lex.Pos()
	defer lex.SetPos(save)
	t, err := lex.Next()
	return err == nil && t.Kind == xpath.TokLParen
}

type clause struct {
	isFor bool
	v     string
	q     Query
}

func (qp *qparser) parseVar() (string, error) {
	if err := qp.expect(xpath.TokDollar, "$"); err != nil {
		return "", err
	}
	if qp.tok().Kind != xpath.TokIdent {
		return "", fmt.Errorf("xquery: expected variable name at offset %d", qp.tok().Pos)
	}
	name := qp.tok().Text
	return name, qp.advance()
}

func (qp *qparser) parseFLWR() (Query, error) {
	var clauses []clause
	for qp.atKeyword("for") || qp.atKeyword("let") {
		isFor := qp.tok().Text == "for"
		if err := qp.advance(); err != nil {
			return nil, err
		}
		for {
			v, err := qp.parseVar()
			if err != nil {
				return nil, err
			}
			if isFor {
				if err := qp.expectKeyword("in"); err != nil {
					return nil, err
				}
			} else {
				if err := qp.expect(xpath.TokColonEq, ":="); err != nil {
					return nil, err
				}
			}
			q, err := qp.parseSingle()
			if err != nil {
				return nil, err
			}
			clauses = append(clauses, clause{isFor: isFor, v: v, q: q})
			if qp.tok().Kind != xpath.TokComma {
				break
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
		}
	}

	var whereCond Query
	if qp.atKeyword("where") {
		if err := qp.advance(); err != nil {
			return nil, err
		}
		c, err := qp.parseSingle()
		if err != nil {
			return nil, err
		}
		whereCond = c
	}

	var orderKeys []xpath.Expr
	descending := false
	if qp.atKeyword("stable") {
		if err := qp.advance(); err != nil {
			return nil, err
		}
	}
	if qp.atKeyword("order") {
		if err := qp.advance(); err != nil {
			return nil, err
		}
		if err := qp.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := qp.p.ParseExpr()
			if err != nil {
				return nil, err
			}
			orderKeys = append(orderKeys, e)
			if qp.atKeyword("ascending") {
				if err := qp.advance(); err != nil {
					return nil, err
				}
			} else if qp.atKeyword("descending") {
				descending = true
				if err := qp.advance(); err != nil {
					return nil, err
				}
			}
			if qp.tok().Kind != xpath.TokComma {
				break
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
		}
	}

	if err := qp.expectKeyword("return"); err != nil {
		return nil, err
	}
	body, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}

	// Desugar inside out: where becomes an if with an empty else; order by
	// wraps the body of the innermost for.
	if whereCond != nil {
		body = If{Cond: whereCond, Then: body, Else: Empty{}}
	}
	if len(orderKeys) > 0 {
		body = OrderBy{Keys: orderKeys, Descending: descending, Body: body}
	}
	out := body
	for i := len(clauses) - 1; i >= 0; i-- {
		c := clauses[i]
		if c.isFor {
			out = For{Var: c.v, In: c.q, Return: out}
		} else {
			out = Let{Var: c.v, Val: c.q, Return: out}
		}
	}
	return out, nil
}

func (qp *qparser) parseQuantified() (Query, error) {
	every := qp.tok().Text == "every"
	if err := qp.advance(); err != nil {
		return nil, err
	}
	v, err := qp.parseVar()
	if err != nil {
		return nil, err
	}
	if err := qp.expectKeyword("in"); err != nil {
		return nil, err
	}
	in, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}
	if err := qp.expectKeyword("satisfies"); err != nil {
		return nil, err
	}
	sat, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}
	return Quantified{Every: every, Var: v, In: in, Sat: sat}, nil
}

func (qp *qparser) parseIf() (Query, error) {
	if err := qp.advance(); err != nil { // "if"
		return nil, err
	}
	if err := qp.expect(xpath.TokLParen, "("); err != nil {
		return nil, err
	}
	cond, err := qp.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := qp.expect(xpath.TokRParen, ")"); err != nil {
		return nil, err
	}
	if err := qp.expectKeyword("then"); err != nil {
		return nil, err
	}
	then, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}
	if err := qp.expectKeyword("else"); err != nil {
		return nil, err
	}
	els, err := qp.parseSingle()
	if err != nil {
		return nil, err
	}
	return If{Cond: cond, Then: then, Else: els}, nil
}

func (qp *qparser) parseFuncQ() (Query, error) {
	name := qp.tok().Text
	if err := qp.advance(); err != nil {
		return nil, err
	}
	if err := qp.expect(xpath.TokLParen, "("); err != nil {
		return nil, err
	}
	var args []Query
	if qp.tok().Kind != xpath.TokRParen {
		for {
			a, err := qp.parseSingle()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if qp.tok().Kind != xpath.TokComma {
				break
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := qp.expect(xpath.TokRParen, ")"); err != nil {
		return nil, err
	}
	return FuncQ{Name: name, Args: args}, nil
}

// parseElement parses an element constructor. On entry the lookahead is
// TokLt; the lexer sits just after '<'.
func (qp *qparser) parseElement() (Query, error) {
	if err := qp.advance(); err != nil { // consume '<'
		return nil, err
	}
	if qp.tok().Kind != xpath.TokIdent {
		return nil, fmt.Errorf("xquery: expected element name at offset %d", qp.tok().Pos)
	}
	el := Element{Tag: qp.tok().Text}
	if err := qp.advance(); err != nil {
		return nil, err
	}
	for qp.tok().Kind == xpath.TokIdent {
		a := Attr{Name: qp.tok().Text}
		if err := qp.advance(); err != nil {
			return nil, err
		}
		if err := qp.expect(xpath.TokEq, "="); err != nil {
			return nil, err
		}
		switch qp.tok().Kind {
		case xpath.TokLiteral:
			// A literal attribute value; it may itself contain {expr}
			// (XQuery allows enclosed expressions inside attribute
			// values — the XMark queries use the whole-value form).
			lit := qp.tok().Text
			if strings.HasPrefix(lit, "{") && strings.HasSuffix(lit, "}") {
				inner, err := Parse(lit[1 : len(lit)-1])
				if err != nil {
					return nil, fmt.Errorf("xquery: attribute %s: %w", a.Name, err)
				}
				a.Expr = inner
			} else {
				a.Literal = lit
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
		case xpath.TokLBrace:
			if err := qp.advance(); err != nil {
				return nil, err
			}
			inner, err := qp.parseQuery()
			if err != nil {
				return nil, err
			}
			a.Expr = inner
			if err := qp.expect(xpath.TokRBrace, "}"); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("xquery: bad attribute value at offset %d", qp.tok().Pos)
		}
		el.Attrs = append(el.Attrs, a)
	}
	switch qp.tok().Kind {
	case xpath.TokSlash:
		if err := qp.advance(); err != nil {
			return nil, err
		}
		if qp.tok().Kind != xpath.TokGt {
			return nil, fmt.Errorf("xquery: expected /> at offset %d", qp.tok().Pos)
		}
		// Do NOT advance past '>': content scanning is raw; resume
		// token-level parsing from the current lexer position.
		if err := qp.advance(); err != nil {
			return nil, err
		}
		return el, nil
	case xpath.TokGt:
		// The lexer now sits right after '>'; scan raw content.
		body, err := qp.parseContent(el.Tag)
		if err != nil {
			return nil, err
		}
		el.Body = body
		return el, nil
	}
	return nil, fmt.Errorf("xquery: malformed element constructor at offset %d", qp.tok().Pos)
}

// parseContent scans raw element-constructor content until the matching
// closing tag. On entry the lexer is positioned just after the opening
// '>'. On exit the parser lookahead is re-primed past the closing tag.
func (qp *qparser) parseContent(tag string) (Query, error) {
	lex := qp.p.Lexer()
	var items []Query
	for {
		rest := lex.Rest()
		if rest == "" {
			return nil, fmt.Errorf("xquery: unterminated element <%s>", tag)
		}
		stop := strings.IndexAny(rest, "<{")
		if stop < 0 {
			return nil, fmt.Errorf("xquery: unterminated element <%s>", tag)
		}
		if text := rest[:stop]; strings.TrimSpace(text) != "" {
			items = append(items, Text{S: text})
		}
		lex.SetPos(lex.Pos() + stop)
		rest = lex.Rest()
		switch {
		case strings.HasPrefix(rest, "</"):
			lex.SetPos(lex.Pos() + 2)
			if err := qp.p.ResetLookahead(); err != nil {
				return nil, err
			}
			if qp.tok().Kind != xpath.TokIdent || qp.tok().Text != tag {
				return nil, fmt.Errorf("xquery: mismatched closing tag </%s> for <%s>", qp.tok().Text, tag)
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
			if qp.tok().Kind != xpath.TokGt {
				return nil, fmt.Errorf("xquery: expected > after </%s", tag)
			}
			if err := qp.advance(); err != nil {
				return nil, err
			}
			return seqOf(items), nil
		case strings.HasPrefix(rest, "<"):
			// Nested element constructor: position the lookahead at '<'.
			if err := qp.p.ResetLookahead(); err != nil {
				return nil, err
			}
			child, err := qp.parseElement()
			if err != nil {
				return nil, err
			}
			items = append(items, child)
			// parseElement leaves the lookahead one token past the
			// constructor; rewind the raw scanner to just after it.
			lex.SetPos(qp.tok().Pos)
		case strings.HasPrefix(rest, "{"):
			lex.SetPos(lex.Pos() + 1)
			if err := qp.p.ResetLookahead(); err != nil {
				return nil, err
			}
			inner, err := qp.parseQuery()
			if err != nil {
				return nil, err
			}
			items = append(items, inner)
			if qp.tok().Kind != xpath.TokRBrace {
				return nil, fmt.Errorf("xquery: expected } at offset %d, found %s", qp.tok().Pos, qp.tok())
			}
			// Resume raw scanning just after '}': the lookahead token
			// after '}' must not be consumed as a token.
			lex.SetPos(qp.tok().Pos + 1)
		}
	}
}

func seqOf(items []Query) Query {
	switch len(items) {
	case 0:
		return Empty{}
	case 1:
		return items[0]
	default:
		return Sequence{Items: items}
	}
}
