package xpath

import (
	"mdlog/internal/tree"
)

// selectNodewise is the node-at-a-time Core XPath evaluator Select
// replaced: each predicate re-evaluates its path from every candidate
// node, over the *Node view. It is the reference semantics the tests
// and FuzzXPathSelect hold the set-at-a-time Select to.
func selectNodewise(p *Path, t *tree.Tree) []int {
	nodes := t.View()
	ctx := make([]bool, len(nodes))
	ctx[0] = true // the root
	res := evalPath(p.expandComposite(), nodes, ctx)
	var out []int
	for id, in := range res {
		if in {
			out = append(out, id)
		}
	}
	return out
}

func evalPath(p *Path, nodes []*tree.Node, ctx []bool) []bool {
	cur := ctx
	for _, st := range p.Steps {
		cur = evalStep(st, nodes, cur)
	}
	return cur
}

func evalStep(st Step, nodes []*tree.Node, cur []bool) []bool {
	next := make([]bool, len(nodes))
	addAxis(st.Axis, nodes, cur, next)
	// Node test. Core XPath is defined over plain labeled trees: '*'
	// matches any node (text nodes are ordinary leaves labeled #text,
	// matched explicitly by text()).
	for id := range next {
		if !next[id] {
			continue
		}
		if st.Test != "*" && nodes[id].Label != st.Test {
			next[id] = false
		}
	}
	// Predicates.
	for _, e := range st.Preds {
		for id := range next {
			if next[id] && !evalExpr(e, nodes, id) {
				next[id] = false
			}
		}
	}
	return next
}

func addAxis(ax Axis, nodes []*tree.Node, cur, next []bool) {
	switch ax {
	case AxisSelf:
		copy(next, cur)
	case AxisChild:
		for id, in := range cur {
			if !in {
				continue
			}
			for _, c := range nodes[id].Children {
				next[c.ID] = true
			}
		}
	case AxisDescendant, AxisDescendantOrSelf:
		var mark func(n *tree.Node)
		mark = func(n *tree.Node) {
			next[n.ID] = true
			for _, c := range n.Children {
				mark(c)
			}
		}
		for id, in := range cur {
			if !in {
				continue
			}
			if ax == AxisDescendantOrSelf {
				mark(nodes[id])
			} else {
				for _, c := range nodes[id].Children {
					mark(c)
				}
			}
		}
	case AxisParent:
		for id, in := range cur {
			if in && nodes[id].Parent != nil {
				next[nodes[id].Parent.ID] = true
			}
		}
	case AxisAncestor, AxisAncestorOrSelf:
		for id, in := range cur {
			if !in {
				continue
			}
			if ax == AxisAncestorOrSelf {
				next[id] = true
			}
			for a := nodes[id].Parent; a != nil; a = a.Parent {
				next[a.ID] = true
			}
		}
	case AxisFollowingSibling:
		for id, in := range cur {
			if !in {
				continue
			}
			for s := nodes[id].NextSibling(); s != nil; s = s.NextSibling() {
				next[s.ID] = true
			}
		}
	case AxisPrecedingSibling:
		for id, in := range cur {
			if !in {
				continue
			}
			for s := nodes[id].PrevSibling(); s != nil; s = s.PrevSibling() {
				next[s.ID] = true
			}
		}
	}
}

func evalExpr(e Expr, nodes []*tree.Node, id int) bool {
	switch g := e.(type) {
	case ExprPath:
		ctx := make([]bool, len(nodes))
		ctx[id] = true
		res := evalPath(g.Path, nodes, ctx)
		for _, in := range res {
			if in {
				return true
			}
		}
		return false
	case ExprAnd:
		return evalExpr(g.L, nodes, id) && evalExpr(g.R, nodes, id)
	case ExprOr:
		return evalExpr(g.L, nodes, id) || evalExpr(g.R, nodes, id)
	case ExprNot:
		return !evalExpr(g.E, nodes, id)
	}
	return false
}
