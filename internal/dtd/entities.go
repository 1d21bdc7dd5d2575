package dtd

import (
	"fmt"
	"strings"
)

// This file implements the DTD features real-world schemas (XHTML,
// DocBook) need beyond the benchmark grammars: parameter entities,
// conditional sections, and extraction of the internal subset from a
// DOCTYPE declaration.

// ExpandParameterEntities resolves <!ENTITY % name "replacement">
// declarations and %name; references in a DTD source, and evaluates
// <![INCLUDE[…]]> / <![IGNORE[…]]> conditional sections (whose keywords
// are themselves often parameter entities). The result contains no
// parameter declarations or references and can be handed to ParseString.
func ExpandParameterEntities(src string) (string, error) {
	ents := map[string]string{}
	var out strings.Builder
	// Iterate until no %refs remain; bound the rounds to catch cycles.
	for round := 0; ; round++ {
		if round > 100 {
			return "", fmt.Errorf("dtd: parameter entities do not terminate (cycle?)")
		}
		out.Reset()
		changed, err := expandOnce(src, ents, &out)
		if err != nil {
			return "", err
		}
		src = out.String()
		if !changed {
			return src, nil
		}
	}
}

// expandOnce performs one pass: records entity declarations (removing
// them from the output), substitutes known %name; references, and
// resolves conditional sections with literal keywords.
func expandOnce(src string, ents map[string]string, out *strings.Builder) (bool, error) {
	changed := false
	i := 0
	for i < len(src) {
		switch {
		case strings.HasPrefix(src[i:], "<!--"):
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				out.WriteString(src[i:])
				return changed, nil
			}
			out.WriteString(src[i : i+4+end+3])
			i += 4 + end + 3
		case strings.HasPrefix(src[i:], "<!ENTITY"):
			rest := src[i+len("<!ENTITY"):]
			j := skipSpaceIdx(rest, 0)
			if j >= len(rest) || rest[j] != '%' {
				// A general entity: copy through (ParseString skips it).
				end := strings.IndexByte(src[i:], '>')
				if end < 0 {
					return changed, fmt.Errorf("dtd: unterminated <!ENTITY")
				}
				out.WriteString(src[i : i+end+1])
				i += end + 1
				continue
			}
			j = skipSpaceIdx(rest, j+1)
			k := j
			for k < len(rest) && isNameChar(rest[k]) {
				k++
			}
			if k == j {
				return changed, fmt.Errorf("dtd: bad parameter entity name")
			}
			name := rest[j:k]
			k = skipSpaceIdx(rest, k)
			if k >= len(rest) || (rest[k] != '"' && rest[k] != '\'') {
				return changed, fmt.Errorf("dtd: parameter entity %%%s: expected quoted replacement", name)
			}
			q := rest[k]
			endq := strings.IndexByte(rest[k+1:], q)
			if endq < 0 {
				return changed, fmt.Errorf("dtd: parameter entity %%%s: unterminated replacement", name)
			}
			value := rest[k+1 : k+1+endq]
			k += 1 + endq + 1
			k = skipSpaceIdx(rest, k)
			if k >= len(rest) || rest[k] != '>' {
				return changed, fmt.Errorf("dtd: parameter entity %%%s: expected >", name)
			}
			if _, dup := ents[name]; !dup {
				ents[name] = value // XML spec: first binding wins
			}
			i += len("<!ENTITY") + k + 1
			changed = true
		case strings.HasPrefix(src[i:], "<!["):
			// Conditional section: <![KEYWORD[ … ]]>. The keyword may have
			// been a %ref, resolved by an earlier round.
			j := skipSpaceIdx(src, i+3)
			k := j
			for k < len(src) && isNameChar(src[k]) {
				k++
			}
			keyword := src[j:k]
			k = skipSpaceIdx(src, k)
			if k >= len(src) || src[k] != '[' {
				if strings.HasPrefix(src[j:], "%") {
					// Unresolved keyword reference: emit as-is and let the
					// %-substitution below handle it next round.
					out.WriteByte(src[i])
					i++
					changed = true
					continue
				}
				return changed, fmt.Errorf("dtd: malformed conditional section")
			}
			body, next, err := conditionalBody(src, k+1)
			if err != nil {
				return changed, err
			}
			switch keyword {
			case "INCLUDE":
				out.WriteString(body)
			case "IGNORE":
				// dropped
			default:
				return changed, fmt.Errorf("dtd: conditional section keyword %q (expected INCLUDE or IGNORE)", keyword)
			}
			i = next
			changed = true
		case src[i] == '%':
			// Parameter reference %name; (only recognised with the
			// terminating semicolon — '%' also appears in ATTLIST text).
			k := i + 1
			for k < len(src) && isNameChar(src[k]) {
				k++
			}
			if k > i+1 && k < len(src) && src[k] == ';' {
				name := src[i+1 : k]
				val, ok := ents[name]
				if !ok {
					return changed, fmt.Errorf("dtd: undefined parameter entity %%%s;", name)
				}
				out.WriteString(" " + val + " ")
				i = k + 1
				changed = true
				continue
			}
			out.WriteByte(src[i])
			i++
		default:
			out.WriteByte(src[i])
			i++
		}
	}
	return changed, nil
}

// conditionalBody returns the contents of a conditional section starting
// right after "<![KEY[" and the index just past its closing "]]>",
// honouring nesting.
func conditionalBody(src string, start int) (string, int, error) {
	depth := 1
	i := start
	for i < len(src) {
		switch {
		case strings.HasPrefix(src[i:], "<!["):
			depth++
			i += 3
		case strings.HasPrefix(src[i:], "]]>"):
			depth--
			if depth == 0 {
				return src[start:i], i + 3, nil
			}
			i += 3
		default:
			i++
		}
	}
	return "", 0, fmt.Errorf("dtd: unterminated conditional section")
}

func skipSpaceIdx(s string, i int) int {
	for i < len(s) && isSpace(s[i]) {
		i++
	}
	return i
}

// ParseWithEntities is ParseString preceded by parameter-entity expansion.
func ParseWithEntities(src, rootTag string) (*DTD, error) {
	expanded, err := ExpandParameterEntities(src)
	if err != nil {
		return nil, err
	}
	return ParseString(expanded, rootTag)
}
