// Package validate implements validation of documents against DTDs
// (Def. 2.4): a tree t is valid w.r.t. (X, E) when there is an
// interpretation ℑ mapping nodes to names such that the root maps to X and
// each node's children sequence is generated by its name's content model.
//
// Because DTDs are local tree grammars — element tags determine their
// definition — the interpretation of a valid tree is unique and can be
// computed in O(1) per node: ℑ(element) is the symbol dtd.Symbols gives
// its tag and ℑ(text) is the text pseudo-symbol of its parent element.
// Document therefore never spells a name: it walks each element's
// children through the dense content-model automaton the streaming
// pruner validates with (dtd.DenseDFA), one array load per child.
//
// It is a test oracle: the declarative statement of Def. 2.4 the tests
// hold the product's one validator, the scanner's validating pass
// (xmlproj.DTD.Validate), to. No command links it.
//
// Defended by: test oracle (Def. 2.4 over a loaded tree, against which the validating prune is checked).
package validate

import (
	"fmt"
	"slices"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// Error describes a validation failure at a specific node.
type Error struct {
	// Path is a rooted element path like /site/regions/africa.
	Path string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("validate: %s: %s", e.Path, e.Msg) }

// Document checks that doc is valid with respect to d. The first
// violation is reported as an *Error.
func Document(d *dtd.DTD, doc *tree.Document) error {
	top := doc.Root()
	if !top.Valid() {
		return &Error{Path: "/", Msg: "empty document"}
	}
	syms := d.Symbols()
	root, ok := syms.Lookup([]byte(top.Tag()))
	var e *Error
	switch {
	case !ok:
		e = &Error{Msg: "element not declared in DTD"}
	case root != syms.Root():
		e = &Error{Msg: fmt.Sprintf("root element is %s, DTD requires %s", syms.Name(root), d.Root)}
	default:
		syms.CompileDense()
		e = validateNode(syms, top, root)
	}
	if e != nil {
		e.Path = "/" + top.Tag() + e.Path
		return e
	}
	return nil
}

// validateNode reports the first violation in n's subtree, its Path
// relative to n: a path is spelled only when something failed.
func validateNode(syms *dtd.Symbols, n tree.Node, sym int32) *Error {
	info := syms.Info(sym)
	def := info.Def

	// Attributes: declared, enumerations respected, required present.
	for i := range n.NumAttrs() {
		a := n.AttrAt(i)
		ad := def.AttDef(a.Name)
		if ad == nil {
			return &Error{Msg: fmt.Sprintf("undeclared attribute %q", a.Name)}
		}
		if len(ad.Enum) > 0 && !slices.Contains(ad.Enum, a.Value) {
			return &Error{Msg: fmt.Sprintf("attribute %q has value %q outside its enumeration", a.Name, a.Value)}
		}
		if ad.Fixed != "" && a.Value != ad.Fixed {
			return &Error{Msg: fmt.Sprintf("attribute %q must have fixed value %q", a.Name, ad.Fixed)}
		}
	}
	for i := range def.Atts {
		ad := &def.Atts[i]
		if !ad.Required {
			continue
		}
		if _, present := n.Attr(ad.Attr); !present {
			return &Error{Msg: fmt.Sprintf("missing required attribute %q", ad.Attr)}
		}
	}

	// Children against the content model, one transition per child: an
	// element steps by its symbol, text by the element's text column.
	aut := info.Dense
	state := aut.Start()
	i := 0
	for c := n.FirstChild(); c.Valid(); c, i = c.NextSibling(), i+1 {
		if c.Kind() == tree.Text {
			if state = aut.NextText(state); state < 0 {
				return &Error{Msg: fmt.Sprintf("text (child %d) is not allowed by content model %s", i, def.Content)}
			}
			continue
		}
		csym, ok := syms.Lookup([]byte(c.Tag()))
		if !ok {
			return &Error{Path: fmt.Sprintf("/%s[%d]", c.Tag(), i), Msg: "element not declared in DTD"}
		}
		if state = aut.Next(state, csym); state < 0 {
			return &Error{Msg: fmt.Sprintf("element %s (child %d) is not allowed by content model %s", c.Tag(), i, def.Content)}
		}
		if e := validateNode(syms, c, csym); e != nil {
			e.Path = fmt.Sprintf("/%s[%d]%s", c.Tag(), i, e.Path)
			return e
		}
	}
	if !aut.Accepting(state) {
		return &Error{Msg: fmt.Sprintf("children end before content model %s is complete", def.Content)}
	}
	return nil
}
