package xpath

import (
	"slices"

	"mdlog/internal/tree"
)

// Direct evaluation of full Core XPath, not(·) included, on the arena
// columns. It works set-at-a-time, after Gottlob, Koch & Pichler
// (VLDB 2002): every step and every predicate is computed once, as a
// node set over the whole document, so a run takes O(|D|·|Q|) time
// and O(|Q|) allocations whatever the document size. A location step
// maps its context set forward through its axis. A predicate path is
// evaluated backward through the inverse axes (the construction
// pathSat encodes in datalog), giving the nodes from which it can be
// completed. not(·) is set complement.

// Select evaluates the path on the document and returns the sorted
// arena ids of the selected nodes. Absolute paths start at the root;
// relative paths are evaluated with the root as context (the common
// convention for whole-document queries). Only live nodes are read, so
// on an arena mutated in place the ids are arena ids, as the grounding
// engines return them.
func Select(p *Path, t *tree.Tree) []int {
	a := t.Arena()
	e := &evaluator{a: a, order: a.LivePreorder()}
	cur := e.newSet()
	cur[0] = true // the root
	for _, st := range p.expandComposite().Steps {
		cur = e.filter(st, e.image(st.Axis, cur))
	}
	out := make([]int, 0, len(e.order))
	for _, v := range e.order {
		if cur[v] {
			out = append(out, int(v))
		}
	}
	if a.Mutated() {
		slices.Sort(out)
	}
	return out
}

// evaluator holds the arena a run reads and its live nodes in document
// order. Node sets are []bool indexed by arena id; every loop walks
// order, so entries of dead rows are never read or written.
type evaluator struct {
	a     *tree.Arena
	order []int32
}

func (e *evaluator) newSet() []bool { return make([]bool, e.a.Len()) }

// inverse maps each primitive axis to its inverse: y is reachable
// from x via ax iff x is reachable from y via inverse[ax].
var inverse = [...]Axis{
	AxisSelf:  AxisSelf,
	AxisChild: AxisParent, AxisParent: AxisChild,
	AxisDescendant: AxisAncestor, AxisAncestor: AxisDescendant,
	AxisDescendantOrSelf: AxisAncestorOrSelf, AxisAncestorOrSelf: AxisDescendantOrSelf,
	AxisFollowingSibling: AxisPrecedingSibling, AxisPrecedingSibling: AxisFollowingSibling,
}

// image returns the nodes reachable from some node of s via the axis,
// as a fresh set. Forward axes read each node's parent or previous
// sibling, which precede it in document order; reverse axes read its
// children or next sibling in reverse document order. So one pass
// over order closes each transitive axis.
func (e *evaluator) image(ax Axis, s []bool) []bool {
	out := e.newSet()
	parent, prev, next := e.a.Parent, e.a.PrevSibling, e.a.NextSibling
	switch ax {
	case AxisSelf:
		copy(out, s)
	case AxisChild:
		for _, v := range e.order {
			p := parent[v]
			out[v] = p != tree.NoNode && s[p]
		}
	case AxisDescendant:
		for _, v := range e.order {
			p := parent[v]
			out[v] = p != tree.NoNode && (s[p] || out[p])
		}
	case AxisDescendantOrSelf:
		for _, v := range e.order {
			p := parent[v]
			out[v] = s[v] || p != tree.NoNode && out[p]
		}
	case AxisParent:
		for _, v := range e.order {
			if p := parent[v]; p != tree.NoNode && s[v] {
				out[p] = true
			}
		}
	case AxisAncestor:
		for _, v := range slices.Backward(e.order) {
			if p := parent[v]; p != tree.NoNode && (s[v] || out[v]) {
				out[p] = true
			}
		}
	case AxisAncestorOrSelf:
		for _, v := range slices.Backward(e.order) {
			out[v] = out[v] || s[v]
			if p := parent[v]; p != tree.NoNode && out[v] {
				out[p] = true
			}
		}
	case AxisFollowingSibling:
		for _, v := range e.order {
			q := prev[v]
			out[v] = q != tree.NoNode && (s[q] || out[q])
		}
	case AxisPrecedingSibling:
		for _, v := range slices.Backward(e.order) {
			q := next[v]
			out[v] = q != tree.NoNode && (s[q] || out[q])
		}
	}
	return out
}

// filter keeps, in place, the nodes of s that pass the step's node
// test and predicates. Core XPath is defined over plain labeled trees:
// '*' matches any node (text nodes are ordinary leaves labeled #text,
// matched explicitly by text()).
func (e *evaluator) filter(st Step, s []bool) []bool {
	if st.Test != "*" {
		sym, label := e.a.Syms.ID(st.Test), e.a.Label
		for _, v := range e.order {
			s[v] = s[v] && label[v] == sym
		}
	}
	for _, pr := range st.Preds {
		sat := e.expr(pr)
		for _, v := range e.order {
			s[v] = s[v] && sat[v]
		}
	}
	return s
}

// expr returns the nodes satisfying the filter expression, as a fresh
// set.
func (e *evaluator) expr(x Expr) []bool {
	switch g := x.(type) {
	case ExprPath:
		return e.sat(g.Path)
	case ExprAnd:
		l, r := e.expr(g.L), e.expr(g.R)
		for _, v := range e.order {
			l[v] = l[v] && r[v]
		}
		return l
	case ExprOr:
		l, r := e.expr(g.L), e.expr(g.R)
		for _, v := range e.order {
			l[v] = l[v] || r[v]
		}
		return l
	case ExprNot:
		s := e.expr(g.E)
		for _, v := range e.order {
			s[v] = !s[v]
		}
		return s
	}
	return e.newSet()
}

// sat returns the nodes from which the relative path can be completed,
// built back to front as pathSat builds its datalog: after the last
// step every node qualifies, and each earlier step maps the nodes that
// pass its test and predicates back through the inverse of its axis.
func (e *evaluator) sat(p *Path) []bool {
	s := e.newSet()
	for _, v := range e.order {
		s[v] = true
	}
	for _, st := range slices.Backward(p.Steps) {
		s = e.image(inverse[st.Axis], e.filter(st, s))
	}
	return s
}
