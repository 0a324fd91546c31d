package mso

import (
	"fmt"

	"mdlog/internal/automata"
)

// Compilation of MSO formulas into complete deterministic bottom-up
// tree automata over the firstchild/nextsibling binary encoding — the
// classical Thatcher–Wright/Doner construction behind Proposition 2.1,
// and the machine realizing the ≡-types of the Theorem 4.4 proof.
//
// Encoding: every node of the original unranked tree becomes an
// internal (rank-2) node whose left child encodes its first child and
// whose right child encodes its next sibling; missing pointers become
// ⊥ leaves. Each subformula is compiled over the alphabet
// Σ_eff × {0,1}^k where k is the number of its FREE variables only
// (one marking bit each); connectives cylindrify their operands to the
// union of the free variables, and quantifiers project a bit away and
// drop it from the alphabet. Keeping alphabets minimal per subformula
// is what makes the construction practical.
//
// First-order variables are handled via the standard MSO₀ reduction:
// every variable is compiled as a set (marking bit); atoms are given
// existential set semantics (e.g. firstchild(x,y) becomes "some node
// marked x has a first child marked y"), which coincides with the
// first-order semantics on singleton markings; and each first-order
// quantifier conjoins a singleton automaton before projecting its bit.
//
// Negation is complementation (flip acceptance of a complete DTA),
// conjunction/disjunction are products, quantification is projection
// followed by determinization and minimization — the paper's
// nonelementary worst case lives exactly in those determinizations,
// which the MSO blow-up benchmark measures.

// maxCompileBits bounds the number of free variables of any
// subformula; each costs a marking bit in that subformula's alphabet.
const maxCompileBits = 20

// OtherLabel is the catch-all alphabet symbol for labels not mentioned
// in the formula (Remark 2.2's finitely-many-labels argument).
const OtherLabel = "#other"

// Compiled is a compiled MSO formula: a complete minimal DTA plus the
// symbol table.
type Compiled struct {
	Formula Formula
	DTA     *automata.DTA
	// LabelIdx maps a label mentioned in the formula to its index;
	// unmentioned labels map to OtherLabel's index.
	LabelIdx map[string]int
	// LabelList lists labels by index (the last entry is OtherLabel).
	LabelList []string
	// FreeBits maps each free variable to its marking-bit index.
	FreeBits map[Var]int
	// Bits is the number of marking bits (= number of free variables).
	Bits int
}

// Sym returns the symbol for a node with the given label and marking bits.
func (c *Compiled) Sym(label string, bits int) int {
	li, ok := c.LabelIdx[label]
	if !ok {
		li = c.LabelIdx[OtherLabel]
	}
	return li<<uint(c.Bits) | bits
}

// aut is a DTA together with the ordered list of variables its marking
// bits refer to: symbol = labelIdx << len(vars) | bits, where bit i
// marks membership of vars[i].
type aut struct {
	d    *automata.DTA
	vars []Var
}

// Compile translates an MSO formula into a Compiled automaton. All
// labels beyond those mentioned in the formula are collapsed into
// OtherLabel.
func Compile(f Formula) (*Compiled, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	rf := renameApart(f)
	labels := append(Labels(rf), OtherLabel)
	c := &compiler{labels: labels}
	a, err := c.compile(rf)
	if err != nil {
		return nil, err
	}
	// Order bits by FreeVars order for a stable public interface.
	free := FreeVars(rf)
	a, err = c.lift(a, free)
	if err != nil {
		return nil, err
	}
	out := &Compiled{
		Formula:   f,
		DTA:       shrink(a.d),
		LabelIdx:  map[string]int{},
		LabelList: labels,
		FreeBits:  map[Var]int{},
		Bits:      len(a.vars),
	}
	for i, l := range labels {
		out.LabelIdx[l] = i
	}
	for i, v := range a.vars {
		out.FreeBits[v] = i
	}
	return out, nil
}

type compiler struct {
	labels []string
}

// numSyms is the alphabet size for k marking bits.
func (c *compiler) numSyms(k int) int { return len(c.labels) << uint(k) }

// shrink reduces an automaton after a construction step: full
// minimization while affordable, reachability trimming beyond (Moore
// refinement costs Θ(states² · symbols) per round).
func shrink(d *automata.DTA) *automata.DTA {
	if cost := int64(d.NumStates) * int64(d.NumStates) * int64(d.NumSymbols); cost <= 1e8 {
		return d.Minimize()
	}
	return d.Trim()
}

// lift cylindrifies a onto the variable list newVars (a superset of
// a.vars, possibly reordered): the new automaton reads the extra bits
// and ignores them.
func (c *compiler) lift(a aut, newVars []Var) (aut, error) {
	if len(newVars) > maxCompileBits {
		return aut{}, fmt.Errorf("mso: subformula exceeds %d free variables", maxCompileBits)
	}
	if varsEqual(a.vars, newVars) {
		return a, nil
	}
	pos := map[Var]int{}
	for i, v := range newVars {
		pos[v] = i
	}
	oldPos := make([]int, len(a.vars))
	for i, v := range a.vars {
		p, ok := pos[v]
		if !ok {
			return aut{}, fmt.Errorf("mso: internal lift error: %s missing", v)
		}
		oldPos[i] = p
	}
	kNew, kOld := len(newVars), len(a.vars)
	oldOf := make([]int, c.numSyms(kNew))
	for sym := range oldOf {
		label := sym >> uint(kNew)
		bits := sym & (1<<uint(kNew) - 1)
		oldBits := 0
		for i := 0; i < kOld; i++ {
			if bits>>uint(oldPos[i])&1 == 1 {
				oldBits |= 1 << uint(i)
			}
		}
		oldOf[sym] = label<<uint(kOld) | oldBits
	}
	return aut{d: a.d.ExpandSymbols(oldOf, []int{0}), vars: newVars}, nil
}

// mergeVars unions two variable lists, keeping the order of the first.
func mergeVars(a, b []Var) []Var {
	out := append([]Var(nil), a...)
	seen := map[Var]bool{}
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func varsEqual(a, b []Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *compiler) compile(f Formula) (aut, error) {
	switch g := f.(type) {
	case True:
		return c.constant(true), nil
	case False:
		return c.constant(false), nil
	case Label:
		li := c.labelIdx(g.Label)
		return c.foundAtom([]Var{g.X}, func(label, bits int) bool {
			return bits&1 == 1 && label == li
		}), nil
	case Un:
		switch g.Kind {
		case UnRoot:
			return c.rootAtom(g.X), nil
		case UnLeaf:
			return c.leafAtom(g.X), nil
		case UnLastSibling:
			return c.lastSiblingAtom(g.X), nil
		}
	case Bin:
		if g.X == g.Y {
			// A repeated first-order variable denotes one node: x = x
			// holds, and no node is its own first child, next sibling,
			// child or predecessor in document order.
			return c.constant(g.Kind == BinEq), nil
		}
		switch g.Kind {
		case BinEq:
			return c.pairFoundAtom(g.X, g.Y), nil
		case BinFirstChild:
			return c.edgeAtom(g.X, g.Y, true), nil
		case BinNextSibling:
			return c.edgeAtom(g.X, g.Y, false), nil
		case BinChild:
			return c.childAtom(g.X, g.Y), nil
		case BinBefore:
			return c.beforeAtom(g.X, g.Y), nil
		}
	case In:
		return c.pairFoundAtom(g.X, g.S), nil
	case Subset:
		return c.subsetAtom(g.S, g.T), nil
	case Not:
		a, err := c.compile(g.F)
		if err != nil {
			return aut{}, err
		}
		return aut{d: a.d.Complement(), vars: a.vars}, nil
	case And:
		return c.binop(g.L, g.R, func(a, b bool) bool { return a && b })
	case Or:
		return c.binop(g.L, g.R, func(a, b bool) bool { return a || b })
	case Exists:
		body, err := c.compile(g.Body)
		if err != nil {
			return aut{}, err
		}
		vi := varIndex(body.vars, g.V)
		if vi == -1 {
			// The variable does not occur: ∃v φ ≡ φ (trees are nonempty,
			// so a witness node/set always exists).
			return body, nil
		}
		if !g.V.IsSet() {
			sing := c.singleton(g.V)
			body, err = c.productAut(body, sing, func(a, b bool) bool { return a && b })
			if err != nil {
				return aut{}, err
			}
			vi = varIndex(body.vars, g.V)
		}
		return c.projectVar(body, vi), nil
	case Forall:
		// ∀v φ ≡ ¬∃v ¬φ (the singleton guard for first-order v is added
		// inside the Exists case).
		return c.compile(Not{Exists{g.V, Not{g.Body}}})
	}
	return aut{}, fmt.Errorf("mso: cannot compile %T", f)
}

func varIndex(vars []Var, v Var) int {
	for i, w := range vars {
		if w == v {
			return i
		}
	}
	return -1
}

func (c *compiler) labelIdx(label string) int {
	for i, l := range c.labels {
		if l == label {
			return i
		}
	}
	return len(c.labels) - 1 // OtherLabel
}

func (c *compiler) binop(l, r Formula, comb func(a, b bool) bool) (aut, error) {
	al, err := c.compile(l)
	if err != nil {
		return aut{}, err
	}
	ar, err := c.compile(r)
	if err != nil {
		return aut{}, err
	}
	return c.productAut(al, ar, comb)
}

func (c *compiler) productAut(al, ar aut, comb func(a, b bool) bool) (aut, error) {
	vars := mergeVars(al.vars, ar.vars)
	al, err := c.lift(al, vars)
	if err != nil {
		return aut{}, err
	}
	ar, err = c.lift(ar, vars)
	if err != nil {
		return aut{}, err
	}
	return aut{d: shrink(automata.Product(al.d, ar.d, comb)), vars: vars}, nil
}

// projectVar existentially quantifies the bit of vars[vi] and removes
// it from the alphabet.
func (c *compiler) projectVar(a aut, vi int) aut {
	k := len(a.vars)
	// Step 1: nondeterministically guess the bit.
	pre := make([][]int, c.numSyms(k))
	for sym := range pre {
		pre[sym] = []int{sym &^ (1 << uint(vi)), sym | 1<<uint(vi)}
	}
	d := automata.ProjectSymbols(a.d, pre, [][]int{{0}}).Determinize()
	// Step 2: drop the now-ignored bit from the alphabet.
	newVars := make([]Var, 0, k-1)
	for i, v := range a.vars {
		if i != vi {
			newVars = append(newVars, v)
		}
	}
	oldOf := make([]int, c.numSyms(k-1))
	for sym := range oldOf {
		label := sym >> uint(k-1)
		bits := sym & (1<<uint(k-1) - 1)
		low := bits & (1<<uint(vi) - 1)
		high := bits >> uint(vi) << uint(vi+1)
		oldOf[sym] = label<<uint(k) | high | low
	}
	return aut{d: shrink(d.ExpandSymbols(oldOf, []int{0})), vars: newVars}
}

// tabulate builds a complete DTA over the alphabet for the given
// variable list from a transition function on (q1, q2, label, bits).
func (c *compiler) tabulate(vars []Var, states, leafState int, accept []bool,
	delta func(q1, q2, label, bits int) int) aut {
	k := len(vars)
	d := automata.NewDTA(states, c.numSyms(k), 1)
	copy(d.Accept, accept)
	d.LeafTrans[0] = leafState
	mask := 1<<uint(k) - 1
	for q1 := 0; q1 < states; q1++ {
		for q2 := 0; q2 < states; q2++ {
			for sym := 0; sym < d.NumSymbols; sym++ {
				d.SetTrans(q1, q2, sym, delta(q1, q2, sym>>uint(k), sym&mask))
			}
		}
	}
	return aut{d: d, vars: vars}
}

// constant accepts every tree (or none).
func (c *compiler) constant(value bool) aut {
	return c.tabulate(nil, 1, 0, []bool{value}, func(q1, q2, label, bits int) int { return 0 })
}

// foundAtom is the generic "∃ node satisfying a (label, bits)
// predicate" automaton over one variable.
func (c *compiler) foundAtom(vars []Var, cond func(label, bits int) bool) aut {
	return c.tabulate(vars, 2, 0, []bool{false, true}, func(q1, q2, label, bits int) int {
		if q1 == 1 || q2 == 1 || cond(label, bits) {
			return 1
		}
		return 0
	})
}

// pairFoundAtom accepts iff some node carries both marks (x = y and
// x ∈ S).
func (c *compiler) pairFoundAtom(x, y Var) aut {
	return c.foundAtom([]Var{x, y}, func(label, bits int) bool { return bits == 3 })
}

// subsetAtom accepts iff NO node is marked S but not T.
func (c *compiler) subsetAtom(s, t Var) aut {
	return c.tabulate([]Var{s, t}, 2, 0, []bool{true, false}, func(q1, q2, label, bits int) int {
		if q1 == 1 || q2 == 1 || bits&1 == 1 && bits&2 == 0 {
			return 1
		}
		return 0
	})
}

// singleton accepts iff exactly one node carries the mark.
func (c *compiler) singleton(v Var) aut {
	return c.tabulate([]Var{v}, 3, 0, []bool{false, true, false}, func(q1, q2, label, bits int) int {
		n := q1 + q2 + bits&1
		if n > 2 {
			n = 2
		}
		return n
	})
}

// rootAtom accepts iff the root carries the mark: the state is the bit
// of the current node.
func (c *compiler) rootAtom(v Var) aut {
	return c.tabulate([]Var{v}, 2, 0, []bool{false, true}, func(q1, q2, label, bits int) int {
		return bits & 1
	})
}

// edgeAtom accepts iff some node marked x (bit 0) has its
// encoding-left child (first = true: the original firstchild) or
// encoding-right child (first = false: nextsibling) marked y (bit 1).
// State bits: bit0 = "this subtree's root is marked y", bit1 = found.
func (c *compiler) edgeAtom(x, y Var, first bool) aut {
	return c.tabulate([]Var{x, y}, 4, 0, []bool{false, false, true, true},
		func(q1, q2, label, bits int) int {
			childMark := q1
			if !first {
				childMark = q2
			}
			state := 0
			if bits&2 == 2 {
				state = 1
			}
			if q1 >= 2 || q2 >= 2 || (bits&1 == 1 && childMark&1 == 1) {
				state |= 2
			}
			return state
		})
}

// leafAtom accepts iff some marked node is a leaf of the ORIGINAL tree
// (encoding-left child is ⊥). States: 0 plain, 1 found, 2 = ⊥ leaf.
func (c *compiler) leafAtom(v Var) aut {
	return c.tabulate([]Var{v}, 3, 2, []bool{false, true, false},
		func(q1, q2, label, bits int) int {
			if q1 == 1 || q2 == 1 || (bits&1 == 1 && q1 == 2) {
				return 1
			}
			return 0
		})
}

// lastSiblingAtom accepts iff some marked node is a last sibling: its
// encoding-right child is ⊥ and it is not the root. "Pending" state 3
// marks a node that qualifies provided it has a parent; it counts as
// found one level up and is not accepting at the root.
func (c *compiler) lastSiblingAtom(v Var) aut {
	return c.tabulate([]Var{v}, 4, 2, []bool{false, true, false, false},
		func(q1, q2, label, bits int) int {
			if q1 == 1 || q1 == 3 || q2 == 1 || q2 == 3 {
				return 1
			}
			if bits&1 == 1 && q2 == 2 {
				return 3
			}
			return 0
		})
}

// childAtom accepts iff some node marked x (bit 0) has an original
// child marked y (bit 1): the left encoding child starts the sibling
// chain, tracked via "ychain" = chain starting here contains a y-mark.
// State bits: bit0 = ychain, bit1 = found; ⊥ = 0.
func (c *compiler) childAtom(x, y Var) aut {
	return c.tabulate([]Var{x, y}, 4, 0, []bool{false, false, true, true},
		func(q1, q2, label, bits int) int {
			state := 0
			if bits&2 == 2 || q2&1 == 1 {
				state = 1
			}
			if q1 >= 2 || q2 >= 2 || (bits&1 == 1 && q1&1 == 1) {
				state |= 2
			}
			return state
		})
}

// beforeAtom accepts iff some node marked x (bit 0) precedes some node
// marked y (bit 1) in document order. Document order of the original
// tree equals preorder of the encoding. State bits: bit0 = hasX,
// bit1 = hasY, bit2 = found; ⊥ = 0.
func (c *compiler) beforeAtom(x, y Var) aut {
	accept := make([]bool, 8)
	for s := 4; s < 8; s++ {
		accept[s] = true
	}
	return c.tabulate([]Var{x, y}, 8, 0, accept,
		func(q1, q2, label, bits int) int {
			state := 0
			if bits&1 == 1 || q1&1 == 1 || q2&1 == 1 {
				state |= 1
			}
			if bits&2 == 2 || q1&2 == 2 || q2&2 == 2 {
				state |= 2
			}
			if q1&4 == 4 || q2&4 == 4 ||
				(bits&1 == 1 && (q1&2 == 2 || q2&2 == 2)) ||
				(q1&1 == 1 && q2&2 == 2) {
				state |= 4
			}
			return state
		})
}
