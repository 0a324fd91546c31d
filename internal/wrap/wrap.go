// Package wrap implements wrapping proper, as described at the start
// of Section 6 of Gottlob & Koch (PODS 2002): a wrapper is a set of
// information extraction functions (unary queries) computed over a
// document tree; the output tree is obtained by keeping exactly the
// nodes selected by at least one function, relabeling them with their
// pattern names, and connecting them through the transitive closure of
// the original edge relation, preserving document order.
package wrap

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/tree"
)

// Assignment maps pattern names to the selected node ids.
type Assignment map[string][]int

// Options controls output tree construction.
type Options struct {
	// RootLabel labels the synthetic output root (default "result").
	RootLabel string
	// KeepText copies the Text of extracted #text nodes.
	KeepText bool
	// LabelSep joins multiple pattern names selecting the same node
	// (default "+").
	LabelSep string
}

func (o *Options) defaults() {
	if o.RootLabel == "" {
		o.RootLabel = "result"
	}
	if o.LabelSep == "" {
		o.LabelSep = "+"
	}
}

// BuildOutput computes the output tree: extracted nodes keep their
// relative ancestor structure (a node's parent in the output is its
// closest extracted proper ancestor, or the synthetic root) and their
// document order.
func BuildOutput(t *tree.Tree, a Assignment, opts Options) *tree.Tree {
	opts.defaults()
	nodes := t.View()
	labels := map[int][]string{}
	for pat, ids := range a {
		for _, id := range ids {
			labels[id] = append(labels[id], pat)
		}
	}
	root := tree.New(opts.RootLabel)
	out := map[int]*tree.Node{}
	// Document order guarantees parents are processed before children.
	var ids []int
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pats := labels[id]
		sort.Strings(pats)
		n := &tree.Node{Label: strings.Join(pats, opts.LabelSep)}
		if opts.KeepText {
			n.Text = nodes[id].Text
		}
		// Closest extracted proper ancestor.
		parent := root
		for anc := nodes[id].Parent; anc != nil; anc = anc.Parent {
			if p, ok := out[anc.ID]; ok {
				parent = p
				break
			}
		}
		parent.Add(n)
		out[id] = n
	}
	return tree.NewTree(root)
}

// Wrapper bundles a monadic datalog program with the patterns it
// extracts; Run produces the output tree of the extraction.
type Wrapper struct {
	Program *datalog.Program
	// Extract lists the information extraction functions (intensional
	// predicates) forming the wrapper; empty means every intensional
	// predicate.
	Extract []string
	Options Options
}

// Run evaluates the wrapper on a document with the linear-time engine
// and builds the output tree.
func (w *Wrapper) Run(t *tree.Tree) (*tree.Tree, Assignment, error) {
	res, err := eval.LinearTree(w.Program, t)
	if err != nil {
		return nil, nil, err
	}
	pats := w.Extract
	if len(pats) == 0 {
		pats = w.Program.IntensionalPreds()
	}
	a := Assignment{}
	for _, pat := range pats {
		if ids := res.UnarySet(pat); len(ids) > 0 {
			a[pat] = ids
		}
	}
	return BuildOutput(t, a, w.Options), a, nil
}

// ElogWrapper runs an Elog⁻ / Elog⁻Δ program as a wrapper.
type ElogWrapper struct {
	Program *elog.Program
	// Extract lists the patterns to keep (empty: the program's Extract
	// list, or all patterns).
	Extract []string
	Options Options
}

// Run evaluates the Elog program and builds the output tree.
func (w *ElogWrapper) Run(t *tree.Tree) (*tree.Tree, Assignment, error) {
	res, err := w.Program.Evaluate(t)
	if err != nil {
		return nil, nil, err
	}
	pats := w.Extract
	if len(pats) == 0 {
		pats = w.Program.Extract
	}
	if len(pats) == 0 {
		pats = w.Program.Patterns()
	}
	a := Assignment{}
	for _, pat := range pats {
		if ids := res[pat]; len(ids) > 0 {
			a[pat] = ids
		}
	}
	return BuildOutput(t, a, w.Options), a, nil
}

// WriteXML serializes a tree in XML-ish form with indentation; Text
// content is escaped and emitted inside the element.
func WriteXML(w io.Writer, t *tree.Tree) error {
	var rec func(n *tree.Node, depth int) error
	rec = func(n *tree.Node, depth int) error {
		ind := strings.Repeat("  ", depth)
		if len(n.Children) == 0 {
			if n.Text != "" {
				_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", ind, n.Label, escape(n.Text), n.Label)
				return err
			}
			_, err := fmt.Fprintf(w, "%s<%s/>\n", ind, n.Label)
			return err
		}
		if _, err := fmt.Fprintf(w, "%s<%s>\n", ind, n.Label); err != nil {
			return err
		}
		if n.Text != "" {
			if _, err := fmt.Fprintf(w, "%s  %s\n", ind, escape(n.Text)); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := rec(c, depth+1); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", ind, n.Label)
		return err
	}
	return rec(t.View()[0], 0)
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
