package qa

import (
	"fmt"
	"sort"

	"mdlog/internal/automata"
	"mdlog/internal/tree"
)

// SQAu is a strong unranked query automaton (Definition 4.12).
//
// Down languages L↓(q,a) are given in the Proposition 4.13 normal form
// (finite unions of u v* w over the state alphabet; constant density 1
// guarantees at most one word per length). Up languages L↑(q) are
// given as NFAs over (state, label) pair symbols; the stay language
// Ustay likewise, with its 2DFA B and selection λB.
type SQAu struct {
	NumStates int
	Alphabet  []string
	labelIdx  map[string]int
	Start     State
	Final     map[State]bool
	// Down is the set D ⊆ Q × Σ; pairs outside it are in U.
	Down map[SL]bool
	// DeltaDown maps (q, a) to the uv*w decomposition of L↓(q, a).
	DeltaDown map[SL][]automata.UVW
	DeltaRoot map[SL]State
	DeltaLeaf map[SL]State
	// Up lists the up languages: word ∈ L of entry i sends the parent
	// to Target_i (the L↑(q) of the paper; languages must be disjoint).
	Up []UpLang
	// Stay is the optional stay transition (nil if absent).
	Stay *StayRule
	// Select is the selection function λ.
	Select map[SL]bool
}

// UpLang is one up language L↑(Target).
type UpLang struct {
	Target State
	// Lang is an NFA over pair symbols (see PairSym).
	Lang *automata.NFA
}

// StayRule bundles Ustay and the 2DFA B with its selection λB.
type StayRule struct {
	// Guard is an NFA over pair symbols recognizing Ustay.
	Guard *automata.NFA
	B     *TwoDFA
}

// TwoDFA is a two-way deterministic finite automaton over pair
// symbols, with the selection function λB of Definition 4.12.
type TwoDFA struct {
	NumStates int
	Start     int
	// Delta maps (state, pairSym) to (state, direction); direction is
	// +1 (R) or -1 (L). Missing entries halt the automaton.
	Delta map[[2]int][2]int
	// Assign is λB: (state, pairSym) → new automaton state for the
	// node under the head (missing = ⊥).
	Assign map[[2]int]State
}

// NewSQAu allocates an automaton shell over the given label alphabet.
func NewSQAu(states int, labels []string) *SQAu {
	a := &SQAu{
		NumStates: states,
		Alphabet:  append([]string(nil), labels...),
		labelIdx:  map[string]int{},
		Final:     map[State]bool{},
		Down:      map[SL]bool{},
		DeltaDown: map[SL][]automata.UVW{},
		DeltaRoot: map[SL]State{},
		DeltaLeaf: map[SL]State{},
		Select:    map[SL]bool{},
	}
	sort.Strings(a.Alphabet)
	for i, l := range a.Alphabet {
		a.labelIdx[l] = i
	}
	return a
}

// PairSym encodes a (state, label) pair as an NFA symbol.
func (a *SQAu) PairSym(q State, label string) int {
	li, ok := a.labelIdx[label]
	if !ok {
		li = 0
	}
	return q*len(a.Alphabet) + li
}

// NumPairSyms is the pair-symbol alphabet size.
func (a *SQAu) NumPairSyms() int { return a.NumStates * len(a.Alphabet) }

// Run executes the automaton on an unranked tree.
func (a *SQAu) Run(t *tree.Tree, opts RunOptions) (*Run, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 26
	}
	nodes := t.View()
	n := len(nodes)
	const root = 0 // preorder id of the root
	r := &Run{History: make([]map[State]bool, n)}
	for i := range r.History {
		r.History[i] = map[State]bool{}
	}
	cut := make([]int, n)
	for i := range cut {
		cut[i] = -1
	}
	stayDone := make([]bool, n)
	selected := map[int]bool{}

	assign := func(v int, q State) {
		cut[v] = q
		r.History[v][q] = true
		if a.Select[SL{q, nodes[v].Label}] {
			selected[v] = true
		}
	}
	var queue []int
	inQueue := make([]bool, n)
	push := func(v int) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}
	notify := func(v int) {
		push(v)
		if p := nodes[v].Parent; p != nil {
			push(p.ID)
		}
	}
	record := func(kind StepKind, site int, assigned [][2]int) {
		r.Steps++
		if opts.KeepTrace {
			r.Trace = append(r.Trace, TraceStep{Kind: kind, Node: site, Assigned: assigned})
		}
	}

	assign(root, a.Start)
	notify(root)

	for len(queue) > 0 {
		if r.Steps > maxSteps {
			return nil, fmt.Errorf("qa: SQAu run exceeded %d steps", maxSteps)
		}
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		nd := nodes[v]

		if cut[v] >= 0 {
			pair := SL{cut[v], nd.Label}
			if a.Down[pair] {
				if nd.IsLeaf() {
					if q, ok := a.DeltaLeaf[pair]; ok {
						assign(v, q)
						record(StepLeaf, v, [][2]int{{v, q}})
						notify(v)
					}
				} else if langs, ok := a.DeltaDown[pair]; ok {
					word, err := uniqueWordOfLength(langs, len(nd.Children))
					if err != nil {
						return nil, fmt.Errorf("qa: down at node %d: %v", v, err)
					}
					if word != nil {
						var as [][2]int
						cut[v] = -1
						for i, c := range nd.Children {
							assign(c.ID, word[i])
							as = append(as, [2]int{c.ID, word[i]})
						}
						record(StepDown, v, as)
						for _, c := range nd.Children {
							notify(c.ID)
						}
					}
				}
			} else if v == root {
				if q, ok := a.DeltaRoot[pair]; ok && cutIsRootOnly(cut, v) {
					assign(v, q)
					record(StepRoot, v, [][2]int{{v, q}})
					notify(v)
				}
			}
		}

		// Up or stay transition at v.
		if cut[v] == -1 && len(nd.Children) > 0 {
			word := make([]int, len(nd.Children))
			ok := true
			for i, c := range nd.Children {
				if cut[c.ID] < 0 || a.Down[SL{cut[c.ID], c.Label}] {
					ok = false
					break
				}
				word[i] = a.PairSym(cut[c.ID], c.Label)
			}
			if !ok {
				continue
			}
			target := -1
			for _, ul := range a.Up {
				if ul.Lang.AcceptsWord(word) {
					if target != -1 {
						return nil, fmt.Errorf("qa: up languages not disjoint at node %d", v)
					}
					target = ul.Target
				}
			}
			if target != -1 {
				for _, c := range nd.Children {
					cut[c.ID] = -1
				}
				assign(v, target)
				record(StepUp, v, [][2]int{{v, target}})
				notify(v)
				continue
			}
			if a.Stay != nil && a.Stay.Guard.AcceptsWord(word) {
				if stayDone[v] {
					return nil, fmt.Errorf("qa: second stay transition at node %d", v)
				}
				stayDone[v] = true
				newStates, err := a.runStay(word)
				if err != nil {
					return nil, fmt.Errorf("qa: stay at node %d: %v", v, err)
				}
				var as [][2]int
				for i, c := range nd.Children {
					assign(c.ID, newStates[i])
					as = append(as, [2]int{c.ID, newStates[i]})
				}
				record(StepStay, v, as)
				for _, c := range nd.Children {
					notify(c.ID)
				}
			}
		}
	}

	r.Accepting = cut[root] >= 0 && a.Final[cut[root]]
	if r.Accepting {
		for v := range selected {
			r.Selected = append(r.Selected, v)
		}
		sort.Ints(r.Selected)
	}
	return r, nil
}

// uniqueWordOfLength finds the unique word of length m in the union of
// uv*w languages (density 1), nil if none exists.
func uniqueWordOfLength(langs []automata.UVW, m int) ([]int, error) {
	var found []int
	for _, l := range langs {
		if w, ok := l.WordOfLength(m); ok {
			if found != nil && !equalWords(found, w) {
				return nil, fmt.Errorf("two distinct words of length %d (density > 1)", m)
			}
			found = w
		}
	}
	return found, nil
}

func equalWords(a, b []int) bool {
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

// runStay simulates the 2DFA B over the children word, collecting the
// λB assignments; every child must receive exactly one state.
func (a *SQAu) runStay(word []int) ([]State, error) {
	b := a.Stay.B
	out := make([]State, len(word))
	got := make([]bool, len(word))
	visited := map[[2]int]bool{}
	s, pos := b.Start, 0
	for pos >= 0 && pos < len(word) {
		if visited[[2]int{s, pos}] {
			return nil, fmt.Errorf("2DFA loops at state %d position %d", s, pos)
		}
		visited[[2]int{s, pos}] = true
		sym := word[pos]
		if q, ok := b.Assign[[2]int{s, sym}]; ok {
			if got[pos] && out[pos] != q {
				return nil, fmt.Errorf("2DFA assigns two states to position %d", pos)
			}
			out[pos] = q
			got[pos] = true
		}
		next, ok := b.Delta[[2]int{s, sym}]
		if !ok {
			break
		}
		s, pos = next[0], pos+next[1]
	}
	for i, g := range got {
		if !g {
			return nil, fmt.Errorf("2DFA left position %d unassigned", i)
		}
	}
	return out, nil
}

// String renders the automaton size for reports.
func (a *SQAu) String() string {
	return fmt.Sprintf("SQAu{states: %d, down: %d, up: %d, leaf: %d, stay: %v}",
		a.NumStates, len(a.DeltaDown), len(a.Up), len(a.DeltaLeaf), a.Stay != nil)
}
