package elog

import (
	"fmt"
	"sort"

	"mdlog/internal/tree"
)

// EvalDirect evaluates an Elog⁻ or Elog⁻Δ program directly on a tree:
// a monotone fixpoint over pattern extensions, with conditions
// (including the non-MSO Δ conditions) evaluated natively on the tree.
// It is the reference semantics against which the Corollary 6.4
// compilation route is tested, and the only route for Elog⁻Δ.
func (p *Program) EvalDirect(t *tree.Tree) (map[string][]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ext := map[string][]bool{}
	for _, pat := range p.Patterns() {
		ext[pat] = make([]bool, t.Size())
	}
	rootExt := make([]bool, t.Size())
	rootExt[0] = true // the root
	lookup := func(pat string) []bool {
		if pat == RootPattern {
			return rootExt
		}
		return ext[pat]
	}

	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			parentExt := lookup(r.Parent)
			if parentExt == nil {
				return nil, fmt.Errorf("elog: undefined parent pattern %q in %s", r.Parent, r)
			}
			headExt := ext[r.Head]
			for x0 := 0; x0 < t.Size(); x0++ {
				if !parentExt[x0] {
					continue
				}
				for _, x := range pathTargets(t, x0, r.Path) {
					if headExt[x] {
						continue
					}
					ok, err := r.satisfied(p, t, lookup, x0, x)
					if err != nil {
						return nil, err
					}
					if ok {
						headExt[x] = true
						changed = true
					}
				}
			}
		}
	}

	out := map[string][]int{}
	for pat, bits := range ext {
		var ids []int
		for v, in := range bits {
			if in {
				ids = append(ids, v)
			}
		}
		out[pat] = ids
	}
	return out, nil
}

// pathTargets returns the nodes reachable from x0 via the subelem path
// (ε yields x0 itself).
func pathTargets(t *tree.Tree, x0 int, path Path) []int {
	cur := []int{x0}
	for _, el := range path {
		var next []int
		for _, v := range cur {
			for _, c := range t.View()[v].Children {
				if el == Wildcard || c.Label == el {
					next = append(next, c.ID)
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	sort.Ints(cur)
	return dedupInts(cur)
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// satisfied checks the rule's conditions and references under the
// binding {ParentVar → x0, HeadVar → x}, generating bindings for
// further variables as needed.
func (r Rule) satisfied(p *Program, t *tree.Tree, lookup func(string) []bool, x0, x int) (bool, error) {
	binding := map[string]int{r.ParentVar: x0, r.HeadVar: x}
	return r.solve(p, t, lookup, binding, append([]Condition(nil), r.Conds...), append([]Ref(nil), r.Refs...))
}

// solve processes conditions and references by repeatedly picking one
// whose input variables are bound, enumerating candidates for unbound
// output variables.
func (r Rule) solve(p *Program, t *tree.Tree, lookup func(string) []bool,
	binding map[string]int, conds []Condition, refs []Ref) (bool, error) {
	// Pick a processable condition.
	for i, c := range conds {
		ready, err := c.inputsBound(binding)
		if err != nil {
			return false, err
		}
		if !ready {
			continue
		}
		rest := append(append([]Condition(nil), conds[:i]...), conds[i+1:]...)
		cands, err := c.candidates(t, binding)
		if err != nil {
			return false, err
		}
		outVar := c.outputVar(binding)
		if outVar == "" || bound(binding, outVar) {
			// Pure test.
			if len(cands) == 0 {
				return false, nil
			}
			return r.solve(p, t, lookup, binding, rest, refs)
		}
		for _, v := range cands {
			binding[outVar] = v
			ok, err := r.solve(p, t, lookup, binding, rest, refs)
			if err != nil {
				return false, err
			}
			if ok {
				delete(binding, outVar)
				return true, nil
			}
		}
		delete(binding, outVar)
		return false, nil
	}
	// No condition is ready: process a reference (it may bind variables
	// that unblock the remaining conditions).
	if len(refs) > 0 {
		ref, rest := refs[0], refs[1:]
		extb := lookup(ref.Pattern)
		if extb == nil {
			return false, fmt.Errorf("elog: undefined pattern %q referenced in %s", ref.Pattern, r)
		}
		if v, ok := binding[ref.Var]; ok {
			if !extb[v] {
				return false, nil
			}
			return r.solve(p, t, lookup, binding, conds, rest)
		}
		for v, in := range extb {
			if !in {
				continue
			}
			binding[ref.Var] = v
			ok, err := r.solve(p, t, lookup, binding, conds, rest)
			if err != nil {
				return false, err
			}
			if ok {
				delete(binding, ref.Var)
				return true, nil
			}
		}
		delete(binding, ref.Var)
		return false, nil
	}
	if len(conds) > 0 {
		return false, fmt.Errorf("elog: conditions %v cannot be ordered (unbound inputs) in %s", conds, r)
	}
	return true, nil
}

func bound(b map[string]int, v string) bool {
	_, ok := b[v]
	return ok
}

// inputsBound reports whether the condition's required input variables
// are bound.
func (c Condition) inputsBound(b map[string]int) (bool, error) {
	switch c.Kind {
	case CondLeaf, CondFirstSibling, CondLastSibling:
		return bound(b, c.Vars[0]), nil
	case CondNextSibling:
		return bound(b, c.Vars[0]) || bound(b, c.Vars[1]), nil
	case CondContains:
		return bound(b, c.Vars[0]), nil
	case CondBefore:
		return bound(b, c.Vars[0]) && bound(b, c.Vars[1]), nil
	case CondNotAfter, CondNotBefore:
		return bound(b, c.Vars[0]) && bound(b, c.Vars[1]), nil
	}
	return false, fmt.Errorf("elog: unknown condition kind %d", c.Kind)
}

// outputVar names the variable the condition can generate under the
// current binding (possibly already bound), or "".
func (c Condition) outputVar(b map[string]int) string {
	switch c.Kind {
	case CondNextSibling:
		if !bound(b, c.Vars[0]) {
			return c.Vars[0]
		}
		return c.Vars[1]
	case CondContains:
		return c.Vars[1]
	case CondBefore:
		return c.Vars[2]
	}
	return ""
}

// candidates returns the values for the condition's output variable
// consistent with the binding; for pure tests it returns a nonempty
// slice iff the condition holds.
func (c Condition) candidates(t *tree.Tree, b map[string]int) ([]int, error) {
	node := func(v string) *tree.Node { return t.View()[b[v]] }
	switch c.Kind {
	case CondLeaf:
		if node(c.Vars[0]).IsLeaf() {
			return []int{b[c.Vars[0]]}, nil
		}
		return nil, nil
	case CondFirstSibling:
		if node(c.Vars[0]).IsFirstSibling() {
			return []int{b[c.Vars[0]]}, nil
		}
		return nil, nil
	case CondLastSibling:
		if node(c.Vars[0]).IsLastSibling() {
			return []int{b[c.Vars[0]]}, nil
		}
		return nil, nil
	case CondNextSibling:
		x, xOK := b[c.Vars[0]]
		y, yOK := b[c.Vars[1]]
		switch {
		case xOK && yOK:
			ns := t.View()[x].NextSibling()
			if ns != nil && ns.ID == y {
				return []int{y}, nil
			}
			return nil, nil
		case xOK:
			if ns := t.View()[x].NextSibling(); ns != nil {
				return []int{ns.ID}, nil
			}
			return nil, nil
		default:
			// Only Vars[1] bound: generate Vars[0] via the previous sibling.
			if ps := t.View()[y].PrevSibling(); ps != nil {
				return []int{ps.ID}, nil
			}
			return nil, nil
		}
	case CondContains:
		targets := pathTargets(t, b[c.Vars[0]], c.Path)
		if y, ok := b[c.Vars[1]]; ok {
			for _, v := range targets {
				if v == y {
					return []int{y}, nil
				}
			}
			return nil, nil
		}
		return targets, nil
	case CondBefore:
		x0n := node(c.Vars[0])
		k := len(x0n.Children)
		if k == 0 {
			return nil, nil
		}
		// Positions among the children of x0.
		pos := map[int]int{}
		for i, ch := range x0n.Children {
			pos[ch.ID] = i
		}
		xPos, ok := pos[b[c.Vars[1]]]
		if !ok {
			return nil, nil // x must be a child of x0
		}
		lo := (k*c.Alpha + 99) / 100 // ⌈kα/100⌉
		hi := k * c.Beta / 100       // ⌊kβ/100⌋
		var out []int
		for i, ch := range x0n.Children {
			d := i - xPos
			if d < lo || d > hi {
				continue
			}
			if c.Path[0] != Wildcard && ch.Label != c.Path[0] {
				continue
			}
			out = append(out, ch.ID)
		}
		if y, bnd := b[c.Vars[2]]; bnd {
			for _, v := range out {
				if v == y {
					return []int{y}, nil
				}
			}
			return nil, nil
		}
		return out, nil
	case CondNotAfter:
		// No node reachable from x via π lies strictly before y.
		y := b[c.Vars[1]]
		for _, z := range pathTargets(t, b[c.Vars[0]], c.Path) {
			if z < y {
				return nil, nil
			}
		}
		return []int{y}, nil
	case CondNotBefore:
		// No node reachable from x via π lies strictly after y.
		y := b[c.Vars[1]]
		for _, z := range pathTargets(t, b[c.Vars[0]], c.Path) {
			if z > y {
				return nil, nil
			}
		}
		return []int{y}, nil
	}
	return nil, fmt.Errorf("elog: unknown condition kind %d", c.Kind)
}
