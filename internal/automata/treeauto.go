package automata

import (
	"fmt"
	"sort"
)

// Bottom-up tree automata over full binary trees. Internal nodes carry
// symbols 0..NumSymbols-1 and have exactly two children; leaves carry
// leaf symbols 0..NumLeafSymbols-1. This matches the firstchild/
// nextsibling binary encoding of unranked trees (Figure 1 of the
// paper), where every original node becomes an internal node and
// missing pointers become ⊥ leaves.

// transKey packs (q1, q2, sym) into a map key. States and symbols are
// limited to 2^21, ample for the constructions here.
func transKey(q1, q2, sym int) uint64 {
	return uint64(q1)<<42 | uint64(q2)<<21 | uint64(sym)
}

// DTA is a complete deterministic bottom-up tree automaton: for every
// pair of states and every symbol, Step yields a state; for every leaf
// symbol, LeafState yields a state.
type DTA struct {
	NumStates      int
	NumSymbols     int
	NumLeafSymbols int
	Accept         []bool
	LeafTrans      []int
	trans          map[uint64]int
}

// NewDTA allocates a DTA shell; callers must define all transitions
// before use (completeness is checked lazily by Step panicking).
func NewDTA(states, symbols, leafSymbols int) *DTA {
	return &DTA{
		NumStates:      states,
		NumSymbols:     symbols,
		NumLeafSymbols: leafSymbols,
		Accept:         make([]bool, states),
		LeafTrans:      make([]int, leafSymbols),
		trans:          make(map[uint64]int),
	}
}

// SetTrans defines δ(q1, q2, sym) = r.
func (d *DTA) SetTrans(q1, q2, sym, r int) { d.trans[transKey(q1, q2, sym)] = r }

// Step applies δ(q1, q2, sym).
func (d *DTA) Step(q1, q2, sym int) int {
	r, ok := d.trans[transKey(q1, q2, sym)]
	if !ok {
		panic(fmt.Sprintf("automata: incomplete DTA: no transition (%d,%d,%d)", q1, q2, sym))
	}
	return r
}

// Dense returns δ as a flat table: δ(q1, q2, sym) is
// Dense()[(sym*NumStates+q1)*NumStates+q2]. Tree passes that step once
// per node index it instead of hashing a map key per transition. It
// panics on an incomplete DTA, as Step would on the missing
// transition.
func (d *DTA) Dense() []int32 {
	n := d.NumStates * d.NumStates * d.NumSymbols
	if len(d.trans) != n {
		panic(fmt.Sprintf("automata: incomplete DTA: %d of %d transitions", len(d.trans), n))
	}
	out := make([]int32, n)
	for k, r := range d.trans {
		q1, q2, sym := int(k>>42), int(k>>21&(1<<21-1)), int(k&(1<<21-1))
		out[(sym*d.NumStates+q1)*d.NumStates+q2] = int32(r)
	}
	return out
}

// LeafState returns the state assigned to a leaf symbol.
func (d *DTA) LeafState(sym int) int { return d.LeafTrans[sym] }

// NumTransitions returns the number of stored internal transitions
// (a size measure for the MSO blow-up experiments).
func (d *DTA) NumTransitions() int { return len(d.trans) }

// Complement flips acceptance. Valid because DTAs are complete.
func (d *DTA) Complement() *DTA {
	c := &DTA{NumStates: d.NumStates, NumSymbols: d.NumSymbols,
		NumLeafSymbols: d.NumLeafSymbols, LeafTrans: d.LeafTrans,
		trans: d.trans, Accept: make([]bool, d.NumStates)}
	for i, a := range d.Accept {
		c.Accept[i] = !a
	}
	return c
}

// Product builds the synchronous product of two DTAs over the same
// alphabet, with acceptance combined by comb (e.g. a && b for ∧,
// a || b for ∨). Only reachable state pairs are materialized.
func Product(d, e *DTA, comb func(a, b bool) bool) *DTA {
	if d.NumSymbols != e.NumSymbols || d.NumLeafSymbols != e.NumLeafSymbols {
		panic("automata: alphabet mismatch in Product")
	}
	p := NewDTA(0, d.NumSymbols, e.NumLeafSymbols)
	ids := map[[2]int]int{}
	var pairs [][2]int
	intern := func(a, b int) int {
		k := [2]int{a, b}
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(pairs)
		ids[k] = id
		pairs = append(pairs, k)
		p.Accept = append(p.Accept, comb(d.Accept[a], e.Accept[b]))
		return id
	}
	for sym := 0; sym < d.NumLeafSymbols; sym++ {
		p.LeafTrans[sym] = intern(d.LeafTrans[sym], e.LeafTrans[sym])
	}
	for w := 0; w < len(pairs); w++ {
		for v := 0; v <= w; v++ {
			for sym := 0; sym < p.NumSymbols; sym++ {
				a1, b1 := pairs[w][0], pairs[w][1]
				a2, b2 := pairs[v][0], pairs[v][1]
				p.SetTrans(w, v, sym, intern(d.Step(a1, a2, sym), e.Step(b1, b2, sym)))
				if v != w {
					p.SetTrans(v, w, sym, intern(d.Step(a2, a1, sym), e.Step(b2, b1, sym)))
				}
			}
		}
	}
	p.NumStates = len(pairs)
	return p
}

// ExpandSymbols re-alphabets a DTA deterministically: new symbol s
// behaves exactly like old symbol oldOf[s] (and new leaf symbol s like
// leafOldOf[s]). Used for cylindrification — adding or dropping
// marking bits that the automaton ignores.
func (d *DTA) ExpandSymbols(oldOf []int, leafOldOf []int) *DTA {
	e := NewDTA(d.NumStates, len(oldOf), len(leafOldOf))
	copy(e.Accept, d.Accept)
	for sym, old := range leafOldOf {
		e.LeafTrans[sym] = d.LeafTrans[old]
	}
	post := make([][]int, d.NumSymbols)
	for sym, old := range oldOf {
		post[old] = append(post[old], sym)
	}
	for k, r := range d.trans {
		q1 := int(k >> 42)
		q2 := int(k >> 21 & (1<<21 - 1))
		old := int(k & (1<<21 - 1))
		for _, sym := range post[old] {
			e.SetTrans(q1, q2, sym, r)
		}
	}
	return e
}

// NTA is a nondeterministic bottom-up tree automaton.
type NTA struct {
	NumStates      int
	NumSymbols     int
	NumLeafSymbols int
	Accept         []bool
	LeafTrans      [][]int
	trans          map[uint64][]int
}

// NewNTA allocates an NTA shell.
func NewNTA(states, symbols, leafSymbols int) *NTA {
	return &NTA{
		NumStates:      states,
		NumSymbols:     symbols,
		NumLeafSymbols: leafSymbols,
		Accept:         make([]bool, states),
		LeafTrans:      make([][]int, leafSymbols),
		trans:          map[uint64][]int{},
	}
}

// AddTrans adds r to δ(q1, q2, sym).
func (n *NTA) AddTrans(q1, q2, sym, r int) {
	k := transKey(q1, q2, sym)
	n.trans[k] = append(n.trans[k], r)
}

// Steps returns δ(q1, q2, sym) (possibly empty).
func (n *NTA) Steps(q1, q2, sym int) []int { return n.trans[transKey(q1, q2, sym)] }

// ProjectSymbols turns a DTA into an NTA over the same alphabet where
// each new symbol behaves as the union over pre[sym] of the old
// transitions. This realizes second-order quantification: projecting
// away a marking bit means pre[sym] = {sym with bit 0, sym with bit 1}.
func ProjectSymbols(d *DTA, pre [][]int, leafPre [][]int) *NTA {
	n := NewNTA(d.NumStates, len(pre), len(leafPre))
	copy(n.Accept, d.Accept)
	for sym, olds := range leafPre {
		seen := map[int]bool{}
		for _, o := range olds {
			q := d.LeafTrans[o]
			if !seen[q] {
				seen[q] = true
				n.LeafTrans[sym] = append(n.LeafTrans[sym], q)
			}
		}
	}
	// Transitions: enumerate the DTA's stored transitions; for each new
	// symbol whose preimage contains the old symbol, add the target.
	post := make([][]int, d.NumSymbols) // old symbol -> new symbols
	for sym, olds := range pre {
		for _, o := range olds {
			post[o] = append(post[o], sym)
		}
	}
	for k, r := range d.trans {
		q1 := int(k >> 42)
		q2 := int(k >> 21 & (1<<21 - 1))
		old := int(k & (1<<21 - 1))
		for _, sym := range post[old] {
			n.AddTrans(q1, q2, sym, r)
		}
	}
	return n
}

// Determinize performs the bottom-up subset construction, producing a
// complete DTA (the empty subset acts as the sink).
func (n *NTA) Determinize() *DTA {
	key := func(set []int) string {
		b := make([]byte, 0, len(set)*3)
		for _, q := range set {
			b = append(b, byte(q), byte(q>>8), byte(q>>16))
		}
		return string(b)
	}
	normalize := func(set []int) []int {
		sort.Ints(set)
		out := set[:0]
		for i, q := range set {
			if i == 0 || q != set[i-1] {
				out = append(out, q)
			}
		}
		return out
	}
	d := NewDTA(0, n.NumSymbols, n.NumLeafSymbols)
	ids := map[string]int{}
	var sets [][]int
	intern := func(set []int) int {
		set = normalize(set)
		k := key(set)
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(sets)
		ids[k] = id
		sets = append(sets, set)
		acc := false
		for _, q := range set {
			if n.Accept[q] {
				acc = true
				break
			}
		}
		d.Accept = append(d.Accept, acc)
		return id
	}
	for sym := 0; sym < n.NumLeafSymbols; sym++ {
		d.LeafTrans[sym] = intern(append([]int(nil), n.LeafTrans[sym]...))
	}
	for w := 0; w < len(sets); w++ {
		for v := 0; v <= w; v++ {
			for sym := 0; sym < n.NumSymbols; sym++ {
				step := func(s1, s2 []int) int {
					var next []int
					for _, q1 := range s1 {
						for _, q2 := range s2 {
							next = append(next, n.Steps(q1, q2, sym)...)
						}
					}
					return intern(next)
				}
				d.SetTrans(w, v, sym, step(sets[w], sets[v]))
				if v != w {
					d.SetTrans(v, w, sym, step(sets[v], sets[w]))
				}
			}
		}
	}
	d.NumStates = len(sets)
	return d
}

// Trim restricts the DTA to states reachable from the leaf states
// (closing under the transition function) and renumbers. Acceptance
// and transitions among reachable states are preserved; the result is
// again complete over its state set.
func (d *DTA) Trim() *DTA {
	reach := map[int]bool{}
	var order []int
	add := func(q int) {
		if !reach[q] {
			reach[q] = true
			order = append(order, q)
		}
	}
	for _, q := range d.LeafTrans {
		add(q)
	}
	for w := 0; w < len(order); w++ {
		for v := 0; v <= w; v++ {
			for sym := 0; sym < d.NumSymbols; sym++ {
				add(d.Step(order[w], order[v], sym))
				add(d.Step(order[v], order[w], sym))
			}
		}
	}
	renum := map[int]int{}
	for i, q := range order {
		renum[q] = i
	}
	t := NewDTA(len(order), d.NumSymbols, d.NumLeafSymbols)
	for i, q := range order {
		t.Accept[i] = d.Accept[q]
	}
	for sym, q := range d.LeafTrans {
		t.LeafTrans[sym] = renum[q]
	}
	for w := 0; w < len(order); w++ {
		for v := 0; v < len(order); v++ {
			for sym := 0; sym < d.NumSymbols; sym++ {
				t.SetTrans(w, v, sym, renum[d.Step(order[w], order[v], sym)])
			}
		}
	}
	return t
}

// Minimize trims and then merges equivalent states by Moore-style
// partition refinement: states p, q are equivalent iff they are both
// accepting or both rejecting and for every symbol and every state r,
// δ(p,r,sym) ≡ δ(q,r,sym) and δ(r,p,sym) ≡ δ(r,q,sym).
func (d *DTA) Minimize() *DTA {
	t := d.Trim()
	block := make([]int, t.NumStates)
	for q := range block {
		if t.Accept[q] {
			block[q] = 1
		}
	}
	numBlocks := 2
	if t.NumStates == 0 {
		return t
	}
	for {
		sig := make([]string, t.NumStates)
		for q := 0; q < t.NumStates; q++ {
			b := make([]byte, 0, 2+t.NumStates*t.NumSymbols*2)
			b = append(b, byte(block[q]), byte(block[q]>>8))
			for r := 0; r < t.NumStates; r++ {
				for sym := 0; sym < t.NumSymbols; sym++ {
					x := block[t.Step(q, r, sym)]
					y := block[t.Step(r, q, sym)]
					b = append(b, byte(x), byte(x>>8), byte(y), byte(y>>8))
				}
			}
			sig[q] = string(b)
		}
		ids := map[string]int{}
		next := make([]int, t.NumStates)
		for q, s := range sig {
			id, ok := ids[s]
			if !ok {
				id = len(ids)
				ids[s] = id
			}
			next[q] = id
		}
		if len(ids) == numBlocks {
			block = next
			break
		}
		numBlocks = len(ids)
		block = next
	}
	m := NewDTA(numBlocks, t.NumSymbols, t.NumLeafSymbols)
	for q := 0; q < t.NumStates; q++ {
		m.Accept[block[q]] = t.Accept[q]
	}
	for sym, q := range t.LeafTrans {
		m.LeafTrans[sym] = block[q]
	}
	rep := make([]int, numBlocks)
	for i := range rep {
		rep[i] = -1
	}
	for q := 0; q < t.NumStates; q++ {
		if rep[block[q]] == -1 {
			rep[block[q]] = q
		}
	}
	for b1 := 0; b1 < numBlocks; b1++ {
		for b2 := 0; b2 < numBlocks; b2++ {
			for sym := 0; sym < t.NumSymbols; sym++ {
				m.SetTrans(b1, b2, sym, block[t.Step(rep[b1], rep[b2], sym)])
			}
		}
	}
	return m
}

// IsEmpty reports whether the DTA accepts no tree: no accepting state
// is reachable from the leaf states.
func (d *DTA) IsEmpty() bool {
	reach := map[int]bool{}
	var order []int
	add := func(q int) {
		if !reach[q] {
			reach[q] = true
			order = append(order, q)
		}
	}
	for _, q := range d.LeafTrans {
		add(q)
	}
	for w := 0; w < len(order); w++ {
		if d.Accept[order[w]] {
			return false
		}
		for v := 0; v <= w; v++ {
			for sym := 0; sym < d.NumSymbols; sym++ {
				add(d.Step(order[w], order[v], sym))
				add(d.Step(order[v], order[w], sym))
			}
		}
	}
	for _, q := range order {
		if d.Accept[q] {
			return false
		}
	}
	return true
}
