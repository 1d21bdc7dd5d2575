package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind is the kind of a lexical token.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokLiteral
	TokSlash      // /
	TokSlashSlash // //
	TokDot        // .
	TokDotDot     // ..
	TokAt         // @
	TokColonColon // ::
	TokColonEq    // := (for the XQuery parser sharing this lexer)
	TokLParen     // (
	TokRParen     // )
	TokLBracket   // [
	TokRBracket   // ]
	TokComma      // ,
	TokPipe       // |
	TokPlus       // +
	TokMinus      // -
	TokEq         // =
	TokNeq        // !=
	TokLt         // <
	TokLe         // <=
	TokGt         // >
	TokGe         // >=
	TokStar       // *
	TokDollar     // $
	TokLBrace     // { (XQuery)
	TokRBrace     // } (XQuery)
	TokSemi       // ; (unused in XPath)
)

// Token is a lexical token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokIdent, TokNumber:
		return t.Text
	case TokLiteral:
		return strconv.Quote(t.Text)
	default:
		return t.Text
	}
}

// Lexer tokenises XPath (and the XQuery FLWR core, which shares the token
// set plus braces and :=).
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Pos returns the current byte offset.
func (l *Lexer) Pos() int { return l.pos }

// SetPos rewinds or advances the lexer to a byte offset.
func (l *Lexer) SetPos(p int) { l.pos = p }

// Rest returns the unconsumed input.
func (l *Lexer) Rest() string { return l.src[l.pos:] }

// SkipSpace consumes whitespace.
func (l *Lexer) SkipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// XQuery-style comments (: … :) may appear in benchmark queries.
		if strings.HasPrefix(l.src[l.pos:], "(:") {
			depth := 1
			i := l.pos + 2
			for i < len(l.src) && depth > 0 {
				switch {
				case strings.HasPrefix(l.src[i:], "(:"):
					depth++
					i += 2
				case strings.HasPrefix(l.src[i:], ":)"):
					depth--
					i += 2
				default:
					i++
				}
			}
			l.pos = i
			continue
		}
		return
	}
}

// Next consumes and returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.SkipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	mk := func(kind TokKind, text string) (Token, error) {
		l.pos += len(text)
		return Token{Kind: kind, Text: text, Pos: start}, nil
	}
	switch {
	case two == "//":
		return mk(TokSlashSlash, "//")
	case two == "..":
		return mk(TokDotDot, "..")
	case two == "::":
		return mk(TokColonColon, "::")
	case two == ":=":
		return mk(TokColonEq, ":=")
	case two == "!=":
		return mk(TokNeq, "!=")
	case two == "<=":
		return mk(TokLe, "<=")
	case two == ">=":
		return mk(TokGe, ">=")
	case c == '/':
		return mk(TokSlash, "/")
	case c == '@':
		return mk(TokAt, "@")
	case c == '(':
		return mk(TokLParen, "(")
	case c == ')':
		return mk(TokRParen, ")")
	case c == '[':
		return mk(TokLBracket, "[")
	case c == ']':
		return mk(TokRBracket, "]")
	case c == '{':
		return mk(TokLBrace, "{")
	case c == '}':
		return mk(TokRBrace, "}")
	case c == ',':
		return mk(TokComma, ",")
	case c == ';':
		return mk(TokSemi, ";")
	case c == '|':
		return mk(TokPipe, "|")
	case c == '+':
		return mk(TokPlus, "+")
	case c == '-':
		return mk(TokMinus, "-")
	case c == '=':
		return mk(TokEq, "=")
	case c == '<':
		return mk(TokLt, "<")
	case c == '>':
		return mk(TokGt, ">")
	case c == '*':
		return mk(TokStar, "*")
	case c == '$':
		return mk(TokDollar, "$")
	case c == '"' || c == '\'':
		end := strings.IndexByte(l.src[l.pos+1:], c)
		if end < 0 {
			return Token{}, fmt.Errorf("xpath: unterminated string literal at offset %d", start)
		}
		text := l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return Token{Kind: TokLiteral, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		i := l.pos
		for i < len(l.src) && (l.src[i] >= '0' && l.src[i] <= '9' || l.src[i] == '.') {
			i++
		}
		text := l.src[l.pos:i]
		l.pos = i
		return Token{Kind: TokNumber, Text: text, Pos: start}, nil
	case c == '.':
		return mk(TokDot, ".")
	case isNameStart(rune(c)) || c >= utf8.RuneSelf:
		i := l.pos
		for i < len(l.src) {
			r, sz := utf8.DecodeRuneInString(l.src[i:])
			if !isNameChar(r) {
				break
			}
			i += sz
		}
		text := l.src[l.pos:i]
		l.pos = i
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	}
	return Token{}, fmt.Errorf("xpath: unexpected character %q at offset %d", string(c), start)
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
