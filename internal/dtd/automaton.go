package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// DFA is a deterministic automaton over names, compiled from a content
// model by Thompson construction followed by subset construction. Content
// models are tiny, so eager determinisation is cheap. Nothing validates
// on it: it is what Symbols.CompileDense recompiles into the DenseDFA
// tables every validator steps by symbol, and tests step it by name
// (Start, Next, Accepting) as the second presentation of those tables.
type DFA struct {
	// trans[state][name] = next state; missing entry is a dead state.
	trans []map[Name]int
	// accept[state] reports whether the state is accepting.
	accept []bool
}

// Start returns the start state.
func (a *DFA) Start() int { return 0 }

// Next returns the successor state, or -1 for the dead state.
func (a *DFA) Next(state int, n Name) int {
	if state < 0 {
		return -1
	}
	next, ok := a.trans[state][n]
	if !ok {
		return -1
	}
	return next
}

// Accepting reports whether state is accepting.
func (a *DFA) Accepting(state int) bool {
	return state >= 0 && a.accept[state]
}

// Automaton returns the compiled content-model automaton for the
// definition, building it on first use (compileDense's, and the test
// oracles').
func (def *Def) Automaton() *DFA {
	def.dfaOnce.Do(func() { def.dfa = CompileRegex(def.Content) })
	return def.dfa
}

// --- NFA (Thompson construction) ---

type nfa struct {
	// eps[i] lists ε-successors of state i.
	eps [][]int
	// edges[i] maps a name to successors.
	edges []map[Name][]int
	start int
	final int
}

func newNFA() *nfa { return &nfa{} }

func (m *nfa) newState() int {
	m.eps = append(m.eps, nil)
	m.edges = append(m.edges, nil)
	return len(m.eps) - 1
}

func (m *nfa) addEps(from, to int) { m.eps[from] = append(m.eps[from], to) }

func (m *nfa) addEdge(from int, n Name, to int) {
	if m.edges[from] == nil {
		m.edges[from] = map[Name][]int{}
	}
	m.edges[from][n] = append(m.edges[from][n], to)
}

// build constructs the fragment for r between fresh states and returns
// (entry, exit).
func (m *nfa) build(r Regex) (int, int) {
	in, out := m.newState(), m.newState()
	switch x := r.(type) {
	case Epsilon, nil:
		m.addEps(in, out)
	case Ref:
		m.addEdge(in, x.Name, out)
	case Seq:
		prev := in
		for _, it := range x.Items {
			i, o := m.build(it)
			m.addEps(prev, i)
			prev = o
		}
		m.addEps(prev, out)
	case Alt:
		for _, it := range x.Items {
			i, o := m.build(it)
			m.addEps(in, i)
			m.addEps(o, out)
		}
	case Star:
		i, o := m.build(x.Inner)
		m.addEps(in, i)
		m.addEps(in, out)
		m.addEps(o, i)
		m.addEps(o, out)
	case Plus:
		i, o := m.build(x.Inner)
		m.addEps(in, i)
		m.addEps(o, i)
		m.addEps(o, out)
	case Opt:
		i, o := m.build(x.Inner)
		m.addEps(in, i)
		m.addEps(in, out)
		m.addEps(o, out)
	default:
		panic(fmt.Sprintf("dtd: unknown regex node %T", r))
	}
	return in, out
}

func (m *nfa) closure(states []int) []int {
	seen := map[int]bool{}
	var stack []int
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// CompileRegex compiles a content model into a DFA.
func CompileRegex(r Regex) *DFA {
	m := newNFA()
	in, out := m.build(r)
	m.start, m.final = in, out

	key := func(states []int) string {
		var sb strings.Builder
		for _, s := range states {
			fmt.Fprintf(&sb, "%d,", s)
		}
		return sb.String()
	}

	dfa := &DFA{}
	index := map[string]int{}
	var sets [][]int

	addState := func(states []int) int {
		k := key(states)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(sets)
		index[k] = id
		sets = append(sets, states)
		dfa.trans = append(dfa.trans, map[Name]int{})
		acc := false
		for _, s := range states {
			if s == m.final {
				acc = true
				break
			}
		}
		dfa.accept = append(dfa.accept, acc)
		return id
	}

	start := addState(m.closure([]int{m.start}))
	_ = start
	for work := 0; work < len(sets); work++ {
		states := sets[work]
		moves := map[Name][]int{}
		for _, s := range states {
			for n, tos := range m.edges[s] {
				moves[n] = append(moves[n], tos...)
			}
		}
		for n, tos := range moves {
			id := addState(m.closure(tos))
			dfa.trans[work][n] = id
		}
	}
	return dfa
}
