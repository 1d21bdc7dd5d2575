package xpath

import (
	"fmt"
	"math"
	"strings"
)

// kind says whether a function's result can be a number, which is what a
// predicate compares with the proximity position (positional, path.go).
type kind uint8

const (
	number     kind = iota // a number; also what an unknown name reads as
	notNumber              // a boolean, a string or a node-set
	asArgument             // whatever its one argument is
)

// functions is the library: evalCall rejects a name that is not here, so
// a function cannot be given to it without saying what it returns.
var functions = map[string]kind{
	"last": number, "position": number, "count": number, "string-length": number,
	"number": number, "sum": number, "avg": number, "min": number, "max": number,
	"floor": number, "ceiling": number, "round": number,

	"name": notNumber, "local-name": notNumber, "string": notNumber, "concat": notNumber,
	"starts-with": notNumber, "ends-with": notNumber, "contains": notNumber,
	"substring-before": notNumber, "substring-after": notNumber, "substring": notNumber,
	"normalize-space": notNumber, "translate": notNumber,
	"boolean": notNumber, "not": notNumber, "true": notNumber, "false": notNumber,
	"empty": notNumber, "exists": notNumber, "id": notNumber, "idref": notNumber,

	"zero-or-one": asArgument, "exactly-one": asArgument, "one-or-more": asArgument, "data": asArgument,
}

// evalCall dispatches the XPath 1.0 core function library plus the few
// XQuery functions the benchmark queries use (empty, exists, avg, min,
// max).
func (ev *Evaluator) evalCall(c Call, ctx context) (Value, error) {
	if _, ok := functions[c.Name]; !ok {
		return nil, fmt.Errorf("xpath: unknown function %s()", c.Name)
	}
	arity := func(n int) error {
		if len(c.Args) != n {
			return fmt.Errorf("xpath: %s() expects %d argument(s), got %d", c.Name, n, len(c.Args))
		}
		return nil
	}
	// argOrContext evaluates the single optional argument, defaulting to
	// the context node.
	argOrContext := func() (Value, error) {
		if len(c.Args) == 0 {
			return NodeSet{ctx.node}, nil
		}
		if err := arity(1); err != nil {
			return nil, err
		}
		return ev.eval(c.Args[0], ctx)
	}
	nodeSetArg := func(i int) (NodeSet, error) {
		v, err := ev.eval(c.Args[i], ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: %s() argument %d is not a node-set", c.Name, i+1)
		}
		return ns, nil
	}

	switch c.Name {
	case "last":
		if err := arity(0); err != nil {
			return nil, err
		}
		return float64(ctx.size), nil
	case "position":
		if err := arity(0); err != nil {
			return nil, err
		}
		return float64(ctx.pos), nil
	case "count":
		if err := arity(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		return float64(len(ns)), nil
	case "name", "local-name":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok || len(ns) == 0 {
			return "", nil
		}
		return ns[0].Name(), nil
	case "string":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		return ToString(v), nil
	case "concat":
		if len(c.Args) < 2 {
			return nil, fmt.Errorf("xpath: concat() needs at least 2 arguments")
		}
		var sb strings.Builder
		for _, a := range c.Args {
			v, err := ev.eval(a, ctx)
			if err != nil {
				return nil, err
			}
			sb.WriteString(ToString(v))
		}
		return sb.String(), nil
	case "starts-with":
		if err := arity(2); err != nil {
			return nil, err
		}
		a, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		return strings.HasPrefix(ToString(a), ToString(b)), nil
	case "ends-with": // XPath 2.0, used by some XPathMark queries
		if err := arity(2); err != nil {
			return nil, err
		}
		a, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		return strings.HasSuffix(ToString(a), ToString(b)), nil
	case "contains":
		if err := arity(2); err != nil {
			return nil, err
		}
		a, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		return strings.Contains(ToString(a), ToString(b)), nil
	case "substring-before":
		if err := arity(2); err != nil {
			return nil, err
		}
		a, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		s, sep := ToString(a), ToString(b)
		if i := strings.Index(s, sep); i >= 0 {
			return s[:i], nil
		}
		return "", nil
	case "substring-after":
		if err := arity(2); err != nil {
			return nil, err
		}
		a, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		b, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		s, sep := ToString(a), ToString(b)
		if i := strings.Index(s, sep); i >= 0 {
			return s[i+len(sep):], nil
		}
		return "", nil
	case "substring":
		if len(c.Args) != 2 && len(c.Args) != 3 {
			return nil, fmt.Errorf("xpath: substring() expects 2 or 3 arguments")
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		s := []rune(ToString(v))
		pv, err := ev.eval(c.Args[1], ctx)
		if err != nil {
			return nil, err
		}
		start := math.Round(ToNumber(pv))
		end := math.Inf(1)
		if len(c.Args) == 3 {
			lv, err := ev.eval(c.Args[2], ctx)
			if err != nil {
				return nil, err
			}
			end = start + math.Round(ToNumber(lv))
		}
		var sb strings.Builder
		for i, r := range s {
			p := float64(i + 1)
			if p >= start && p < end {
				sb.WriteRune(r)
			}
		}
		return sb.String(), nil
	case "string-length":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		return float64(len([]rune(ToString(v)))), nil
	case "normalize-space":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		return strings.Join(strings.Fields(ToString(v)), " "), nil
	case "translate":
		if err := arity(3); err != nil {
			return nil, err
		}
		var vs [3]string
		for i := range vs {
			v, err := ev.eval(c.Args[i], ctx)
			if err != nil {
				return nil, err
			}
			vs[i] = ToString(v)
		}
		from, to := []rune(vs[1]), []rune(vs[2])
		var sb strings.Builder
		for _, r := range vs[0] {
			idx := -1
			for i, f := range from {
				if f == r {
					idx = i
					break
				}
			}
			switch {
			case idx < 0:
				sb.WriteRune(r)
			case idx < len(to):
				sb.WriteRune(to[idx])
			}
		}
		return sb.String(), nil
	case "boolean":
		if err := arity(1); err != nil {
			return nil, err
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return ToBoolean(v), nil
	case "not":
		if err := arity(1); err != nil {
			return nil, err
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return !ToBoolean(v), nil
	case "true":
		if err := arity(0); err != nil {
			return nil, err
		}
		return true, nil
	case "false":
		if err := arity(0); err != nil {
			return nil, err
		}
		return false, nil
	case "number":
		v, err := argOrContext()
		if err != nil {
			return nil, err
		}
		return ToNumber(v), nil
	case "sum", "avg", "min", "max":
		if err := arity(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		return aggregate(c.Name, ns), nil
	case "floor":
		if err := arity(1); err != nil {
			return nil, err
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return math.Floor(ToNumber(v)), nil
	case "ceiling":
		if err := arity(1); err != nil {
			return nil, err
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return math.Ceil(ToNumber(v)), nil
	case "round":
		if err := arity(1); err != nil {
			return nil, err
		}
		v, err := ev.eval(c.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		return math.Round(ToNumber(v)), nil
	case "empty": // XQuery fn:empty
		if err := arity(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		return len(ns) == 0, nil
	case "exists": // XQuery fn:exists
		if err := arity(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		return len(ns) > 0, nil
	case "zero-or-one", "exactly-one", "one-or-more", "data":
		// XQuery cardinality assertions: pass the value through (the
		// benchmark queries use them only as static hints).
		if err := arity(1); err != nil {
			return nil, err
		}
		return ev.eval(c.Args[0], ctx)
	case "id", "idref":
		// Simplified fn:id over DTD ID attributes is provided by the
		// XQuery layer; in plain XPath it is unsupported.
		return nil, fmt.Errorf("xpath: function %s() is not supported", c.Name)
	}
	return nil, fmt.Errorf("xpath: function %s() is listed but not implemented", c.Name)
}

func aggregate(name string, ns NodeSet) float64 {
	if len(ns) == 0 {
		if name == "sum" {
			return 0
		}
		return math.NaN()
	}
	var acc float64
	switch name {
	case "min":
		acc = math.Inf(1)
	case "max":
		acc = math.Inf(-1)
	}
	for _, r := range ns {
		f := ToNumber(r.StringValue())
		switch name {
		case "sum", "avg":
			acc += f
		case "min":
			acc = math.Min(acc, f)
		case "max":
			acc = math.Max(acc, f)
		}
	}
	if name == "avg" {
		acc /= float64(len(ns))
	}
	return acc
}
