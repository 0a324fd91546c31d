// Package qa implements the query automata of Neven & Schwentick as
// defined and used in Section 4.3 of Gottlob & Koch (PODS 2002):
//
//   - ranked query automata QAr (Definition 4.8) — two-way
//     deterministic ranked tree automata with a selection function —
//     with a faithful run engine over cuts and configurations,
//     including step counting (Example 4.21 shows runs can take
//     superpolynomially many steps);
//   - strong unranked query automata SQAu (Definition 4.12) with
//     uv*w down languages, NFA up languages and 2DFA stay transitions;
//   - the LOGSPACE-style reductions into monadic datalog
//     (Theorems 4.11 and 4.14), whose output evaluates in linear time.
package qa

import (
	"fmt"
	"sort"

	"mdlog/internal/tree"
)

// State is an automaton state (dense index).
type State = int

// SL is a (state, label) pair — the alphabet of the U/D partition.
type SL struct {
	Q State
	A string
}

// UpKey identifies an up transition by the (state, label) pairs of all
// children, encoded as a string key.
func UpKey(pairs []SL) string {
	key := ""
	for _, p := range pairs {
		key += fmt.Sprintf("(%d,%s)", p.Q, p.A)
	}
	return key
}

// QAr is a ranked query automaton (Definition 4.8).
type QAr struct {
	NumStates int
	Alphabet  []string
	// Rank gives each symbol's arity.
	Rank map[string]int
	// Start is the start state s; Final is the set F.
	Start State
	Final map[State]bool
	// Down contains the (q, a) pairs of the set D; every other pair
	// with a defined behaviour is in U.
	Down map[SL]bool
	// DeltaUp maps UpKey(children pairs) to the parent's new state.
	DeltaUp map[string]State
	// DeltaDown maps (q, a) to the children's states (length = rank(a)).
	DeltaDown map[SL][]State
	// DeltaRoot and DeltaLeaf are the root and leaf transitions.
	DeltaRoot map[SL]State
	DeltaLeaf map[SL]State
	// Select is the selection function λ (true ≙ 1, absent ≙ ⊥).
	Select map[SL]bool
}

// NewQAr allocates an empty automaton shell.
func NewQAr(states int, alphabet map[string]int) *QAr {
	q := &QAr{
		NumStates: states,
		Rank:      map[string]int{},
		Final:     map[State]bool{},
		Down:      map[SL]bool{},
		DeltaUp:   map[string]State{},
		DeltaDown: map[SL][]State{},
		DeltaRoot: map[SL]State{},
		DeltaLeaf: map[SL]State{},
		Select:    map[SL]bool{},
	}
	for a, r := range alphabet {
		q.Alphabet = append(q.Alphabet, a)
		q.Rank[a] = r
	}
	sort.Strings(q.Alphabet)
	return q
}

// StepKind labels the transitions of a run trace.
type StepKind int

const (
	StepDown StepKind = iota
	StepUp
	StepLeaf
	StepRoot
	StepStay
)

func (k StepKind) String() string {
	switch k {
	case StepDown:
		return "down"
	case StepUp:
		return "up"
	case StepLeaf:
		return "leaf"
	case StepRoot:
		return "root"
	case StepStay:
		return "stay"
	}
	return "?"
}

// TraceStep records one applied transition.
type TraceStep struct {
	Kind StepKind
	// Node is the site of the transition (the parent for down/up/stay).
	Node int
	// Assigned lists the (node, state) assignments the step made.
	Assigned [][2]int
}

// Run is the result of executing a query automaton.
type Run struct {
	Steps     int
	Accepting bool
	// History is the paper's H = {⟨q,n⟩}: per node, the set of states
	// it was assigned at any time.
	History []map[State]bool
	// Selected is the set of nodes selected by λ during the run (only
	// meaningful when Accepting).
	Selected []int
	// Trace is the applied-transition sequence (only kept if requested).
	Trace []TraceStep
}

// RunOptions controls execution.
type RunOptions struct {
	MaxSteps  int  // abort guard; 0 means 1 << 26
	KeepTrace bool // record the transition sequence
}

// Run executes the automaton on a ranked tree (Definition 4.8). The
// automaton is deterministic: at every point each node admits at most
// one transition; the schedule (which enabled transition fires first)
// does not affect the assignment history.
func (a *QAr) Run(t *tree.Tree, opts RunOptions) (*Run, error) {
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
	// cut[v] = current state of v, or -1 if v not in the cut.
	cut := make([]int, n)
	for i := range cut {
		cut[i] = -1
	}
	selected := map[int]bool{}

	assign := func(v int, q State) {
		cut[v] = q
		r.History[v][q] = true
		if a.Select[SL{q, nodes[v].Label}] {
			selected[v] = true
		}
	}

	// queue of candidate transition sites (node ids). A site may be
	// enqueued multiple times; enabledness is re-checked on dequeue.
	var queue []int
	inQueue := make([]bool, n)
	push := func(v int) {
		if !inQueue[v] {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}
	// notify enqueues the transitions possibly enabled after v's state
	// changed: v itself (down/leaf/root) and its parent (up).
	notify := func(v int) {
		push(v)
		if p := nodes[v].Parent; p != nil {
			push(p.ID)
		}
	}

	assign(root, a.Start)
	notify(root)

	record := func(kind StepKind, site int, assigned [][2]int) {
		r.Steps++
		if opts.KeepTrace {
			r.Trace = append(r.Trace, TraceStep{Kind: kind, Node: site, Assigned: assigned})
		}
	}

	for len(queue) > 0 {
		if r.Steps > maxSteps {
			return nil, fmt.Errorf("qa: run exceeded %d steps (non-terminating automaton?)", maxSteps)
		}
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		nd := nodes[v]

		// Case 1: v in the cut with a D-pair: leaf or down transition.
		if cut[v] >= 0 {
			pair := SL{cut[v], nd.Label}
			if a.Down[pair] {
				if nd.IsLeaf() {
					if q, ok := a.DeltaLeaf[pair]; ok {
						assign(v, q)
						record(StepLeaf, v, [][2]int{{v, q}})
						notify(v)
					}
				} else if states, ok := a.DeltaDown[pair]; ok {
					if len(states) != len(nd.Children) {
						return nil, fmt.Errorf("qa: down transition arity %d at node %d with %d children", len(states), v, len(nd.Children))
					}
					var as [][2]int
					cut[v] = -1
					for i, c := range nd.Children {
						assign(c.ID, states[i])
						as = append(as, [2]int{c.ID, states[i]})
					}
					record(StepDown, v, as)
					for _, c := range nd.Children {
						notify(c.ID)
					}
				}
			} else if v == root {
				// Root transition: cut must be {root} with a U-pair.
				if q, ok := a.DeltaRoot[pair]; ok && cutIsRootOnly(cut, v) {
					assign(v, q)
					record(StepRoot, v, [][2]int{{v, q}})
					notify(v)
				}
			}
		}

		// Case 2: up transition at v — all children in the cut with
		// U-pairs, v itself not in the cut.
		if cut[v] == -1 && len(nd.Children) > 0 {
			pairs := make([]SL, len(nd.Children))
			ok := true
			for i, c := range nd.Children {
				if cut[c.ID] < 0 {
					ok = false
					break
				}
				pairs[i] = SL{cut[c.ID], c.Label}
				if a.Down[pairs[i]] {
					ok = false
					break
				}
			}
			if ok {
				if q, defined := a.DeltaUp[UpKey(pairs)]; defined {
					for _, c := range nd.Children {
						cut[c.ID] = -1
					}
					assign(v, q)
					record(StepUp, v, [][2]int{{v, q}})
					notify(v)
				}
			}
		}
	}

	// Acceptance: the final configuration must assign a final state to
	// the root.
	r.Accepting = cut[root] >= 0 && a.Final[cut[root]]
	if r.Accepting {
		for v := range selected {
			r.Selected = append(r.Selected, v)
		}
		sort.Ints(r.Selected)
	}
	return r, nil
}

func cutIsRootOnly(cut []int, root int) bool {
	for v, q := range cut {
		if q >= 0 && v != root {
			return false
		}
	}
	return true
}
