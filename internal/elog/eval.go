package elog

import (
	"fmt"
	"slices"

	"mdlog/internal/tree"
)

// EvalDirect evaluates an Elog⁻ or Elog⁻Δ program directly on a tree:
// a monotone fixpoint over pattern extensions, with conditions
// (including the non-MSO Δ conditions) evaluated natively on the
// tree's arena columns. It is the reference semantics against which
// the Corollary 6.4 compilation route is tested, and the only route
// for Elog⁻Δ. Pattern extensions hold arena ids; only live nodes are
// reachable from the root, so on an arena mutated in place the
// answers are arena ids, as the grounding engines return them.
func (p *Program) EvalDirect(t *tree.Tree) (map[string][]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := newDoc(t.Arena())
	n := d.a.Len()
	ext := map[string][]bool{}
	for _, pat := range p.Patterns() {
		ext[pat] = make([]bool, n)
	}
	rootExt := make([]bool, n)
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
			for x0 := 0; x0 < n; x0++ {
				if !parentExt[x0] {
					continue
				}
				for _, x := range d.pathTargets(x0, r.Path) {
					if headExt[x] {
						continue
					}
					ok, err := r.satisfied(p, d, lookup, x0, x)
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

// doc is the arena EvalDirect reads, with the document-order rank of
// each live node when the arena was mutated in place (its ids are then
// not in document order).
type doc struct {
	a    *tree.Arena
	rank []int32 // nil: arena ids are document order
}

func newDoc(a *tree.Arena) doc {
	d := doc{a: a}
	if a.Mutated() {
		d.rank = make([]int32, a.Len())
		for i, v := range a.LivePreorder() {
			d.rank[v] = int32(i)
		}
	}
	return d
}

// before reports that node z precedes node y in document order.
func (d doc) before(z, y int) bool {
	if d.rank == nil {
		return z < y
	}
	return d.rank[z] < d.rank[y]
}

// pathTargets returns the nodes reachable from x0 via the subelem path
// (ε yields x0 itself). In a tree every target has one path from x0,
// so the result has no duplicates.
func (d doc) pathTargets(x0 int, path Path) []int {
	a := d.a
	cur := []int{x0}
	for _, el := range path {
		var next []int
		for _, v := range cur {
			for c := a.FirstChild[v]; c != tree.NoNode; c = a.NextSibling[c] {
				if el == Wildcard || a.LabelName(c) == el {
					next = append(next, int(c))
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// satisfied checks the rule's conditions and references under the
// binding {ParentVar → x0, HeadVar → x}, generating bindings for
// further variables as needed.
func (r Rule) satisfied(p *Program, d doc, lookup func(string) []bool, x0, x int) (bool, error) {
	binding := map[string]int{r.ParentVar: x0, r.HeadVar: x}
	return r.solve(p, d, lookup, binding, append([]Condition(nil), r.Conds...), append([]Ref(nil), r.Refs...))
}

// solve processes conditions and references by repeatedly picking one
// whose input variables are bound, enumerating candidates for unbound
// output variables.
func (r Rule) solve(p *Program, d doc, lookup func(string) []bool,
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
		cands, err := c.candidates(d, binding)
		if err != nil {
			return false, err
		}
		outVar := c.outputVar(binding)
		if outVar == "" || bound(binding, outVar) {
			// Pure test.
			if len(cands) == 0 {
				return false, nil
			}
			return r.solve(p, d, lookup, binding, rest, refs)
		}
		for _, v := range cands {
			binding[outVar] = v
			ok, err := r.solve(p, d, lookup, binding, rest, refs)
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
			return r.solve(p, d, lookup, binding, conds, rest)
		}
		for v, in := range extb {
			if !in {
				continue
			}
			binding[ref.Var] = v
			ok, err := r.solve(p, d, lookup, binding, conds, rest)
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
func (c Condition) candidates(d doc, b map[string]int) ([]int, error) {
	a, x := d.a, b[c.Vars[0]]
	// test passes the condition's input as the witness of a pure test.
	test := func(ok bool) ([]int, error) {
		if ok {
			return []int{x}, nil
		}
		return nil, nil
	}
	// among returns cands for variable v when it is unbound, else v's
	// value if cands holds it.
	among := func(v string, cands []int) ([]int, error) {
		y, ok := b[v]
		switch {
		case !ok:
			return cands, nil
		case slices.Contains(cands, y):
			return []int{y}, nil
		}
		return nil, nil
	}
	node := func(v int32) []int {
		if v == tree.NoNode {
			return nil
		}
		return []int{int(v)}
	}
	switch c.Kind {
	case CondLeaf:
		return test(a.FirstChild[x] == tree.NoNode)
	case CondFirstSibling:
		return test(a.Parent[x] != tree.NoNode && a.PrevSibling[x] == tree.NoNode)
	case CondLastSibling:
		return test(a.Parent[x] != tree.NoNode && a.NextSibling[x] == tree.NoNode)
	case CondNextSibling:
		if !bound(b, c.Vars[0]) {
			// Only Vars[1] bound: generate Vars[0] via the previous sibling.
			return node(a.PrevSibling[b[c.Vars[1]]]), nil
		}
		return among(c.Vars[1], node(a.NextSibling[x]))
	case CondContains:
		return among(c.Vars[1], d.pathTargets(x, c.Path))
	case CondBefore:
		// Positions among the children of x0; x must be one of them.
		var kids []int
		xPos := -1
		for ch := a.FirstChild[x]; ch != tree.NoNode; ch = a.NextSibling[ch] {
			if int(ch) == b[c.Vars[1]] {
				xPos = len(kids)
			}
			kids = append(kids, int(ch))
		}
		if xPos < 0 {
			return nil, nil
		}
		k := len(kids)
		lo := (k*c.Alpha + 99) / 100 // ⌈kα/100⌉
		hi := k * c.Beta / 100       // ⌊kβ/100⌋
		var out []int
		for i, ch := range kids {
			if dist := i - xPos; dist < lo || dist > hi {
				continue
			}
			if c.Path[0] != Wildcard && a.LabelName(int32(ch)) != c.Path[0] {
				continue
			}
			out = append(out, ch)
		}
		return among(c.Vars[2], out)
	case CondNotAfter:
		// No node reachable from x via π lies strictly before y.
		y := b[c.Vars[1]]
		for _, z := range d.pathTargets(x, c.Path) {
			if d.before(z, y) {
				return nil, nil
			}
		}
		return []int{y}, nil
	case CondNotBefore:
		// No node reachable from x via π lies strictly after y.
		y := b[c.Vars[1]]
		for _, z := range d.pathTargets(x, c.Path) {
			if d.before(y, z) {
				return nil, nil
			}
		}
		return []int{y}, nil
	}
	return nil, fmt.Errorf("elog: unknown condition kind %d", c.Kind)
}
