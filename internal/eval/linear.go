package eval

import (
	"fmt"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// This file implements Theorem 4.2: monadic datalog over τ_rk / τ_ur
// has O(|P| · |dom|) combined complexity. The algorithm follows the
// paper's proof:
//
//  1. split every rule into connected rules (introducing propositional
//     helper predicates);
//  2. ground each connected rule in O(|dom|) instantiations, using the
//     bidirectional functional dependencies of the binary tree
//     relations (Proposition 4.1) to propagate a single anchor binding
//     to all variables;
//  3. evaluate the resulting ground program with linear-time
//     propositional Horn inference (Proposition 3.5).
//
// Beyond τ_ur and τ_rk the engine also accepts lastchild/2, which
// enjoys the same two functional dependencies (each node has at most
// one last child and is last child of at most one node); the natural
// child/2 relation does NOT (a node has many children) and is rejected
// — eliminate it first via tmnf.Transform, as in Theorem 5.2.

// SplitConnected rewrites p so that every rule is connected, exactly as
// in the first step of the proof of Theorem 4.2: each connected
// component of a rule's query graph that does not contain the head
// variable is split into a fresh rule with a propositional head.
// Helper predicates are named conn_<rule>_<component>.
func SplitConnected(p *datalog.Program) *datalog.Program {
	out := &datalog.Program{Query: p.Query}
	for ri, r := range p.Rules {
		vars := r.Vars()
		if len(vars) <= 1 {
			out.Rules = append(out.Rules, r.Clone())
			continue
		}
		idx := map[string]int{}
		for i, v := range vars {
			idx[v] = i
		}
		parent := make([]int, len(vars))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		union := func(x, y int) { parent[find(x)] = find(y) }
		for _, b := range r.Body {
			prev := -1
			for _, t := range b.Args {
				if !t.IsVar() {
					continue
				}
				cur := idx[t.Var]
				if prev >= 0 {
					union(prev, cur)
				}
				prev = cur
			}
		}
		// Component of the head variable (or -1 for propositional heads).
		headComp := -1
		if len(r.Head.Args) == 1 && r.Head.Args[0].IsVar() {
			headComp = find(idx[r.Head.Args[0].Var])
		}
		// Group body atoms by component; variable-free atoms stay in the
		// main rule.
		groups := map[int][]datalog.Atom{}
		var mainBody []datalog.Atom
		for _, b := range r.Body {
			comp := -1
			for _, t := range b.Args {
				if t.IsVar() {
					comp = find(idx[t.Var])
					break
				}
			}
			if comp == -1 || comp == headComp {
				mainBody = append(mainBody, b)
			} else {
				groups[comp] = append(groups[comp], b)
			}
		}
		if len(groups) == 0 {
			out.Rules = append(out.Rules, r.Clone())
			continue
		}
		ci := 0
		for comp := range vars { // deterministic order: iterate var index
			atoms, ok := groups[find(comp)]
			if !ok || len(atoms) == 0 {
				continue
			}
			delete(groups, find(comp))
			helper := fmt.Sprintf("conn_%d_%d", ri, ci)
			ci++
			out.Rules = append(out.Rules, datalog.Rule{
				Head: datalog.Atom{Pred: helper},
				Body: atoms,
			})
			mainBody = append(mainBody, datalog.Atom{Pred: helper})
		}
		out.Rules = append(out.Rules, datalog.Rule{Head: r.Head.Clone(), Body: mainBody})
	}
	return out
}

// binEdge is a binary EDB atom compiled for propagation.
type binEdge struct {
	pred string
	kind binKind
	k    int // for child_k
	x, y int // variable slots
}

type binKind int

const (
	binFirstChild binKind = iota
	binNextSibling
	binLastChild
	binChildK
)

// forward returns R(v) for the partial function underlying the relation.
func (e binEdge) forward(nav *Nav, v int) int {
	switch e.kind {
	case binFirstChild:
		return int(nav.FC[v])
	case binNextSibling:
		return int(nav.NS[v])
	case binLastChild:
		return int(nav.LastChild[v])
	case binChildK:
		return nav.ChildK(v, e.k)
	}
	return -1
}

// backward returns R⁻¹(v).
func (e binEdge) backward(nav *Nav, v int) int {
	switch e.kind {
	case binFirstChild:
		if nav.Prev[v] == -1 {
			return int(nav.Parent[v])
		}
	case binNextSibling:
		return int(nav.Prev[v])
	case binLastChild:
		if nav.NS[v] == -1 {
			return int(nav.Parent[v])
		}
	case binChildK:
		return nav.childKParent(v, e.k)
	}
	return -1
}

// planStep propagates a binding along a spanning-tree edge.
type planStep struct {
	edge    binEdge
	forward bool // bind edge.y from edge.x (else x from y)
}

// unaryCheck is a unary EDB body atom compiled to its kind; label
// predicates carry an index into the plan's label list, resolved to a
// per-tree symbol id once per Run, so the per-node test is an integer
// compare.
type unaryCheck struct {
	kind     unaryKind
	labelIdx int32 // index into Plan.labels (kind == uLabel)
	v        int   // variable slot
}

// idbUnaryRef is a unary IDB body atom with its predicate pre-resolved
// to the plan's dense unary-predicate index.
type idbUnaryRef struct {
	pid int // index into Plan.unaryPreds
	v   int // variable slot
}

type linearRule struct {
	src      datalog.Rule
	nvars    int
	headPred string
	headID   int // index into Plan.unaryPreds or Plan.propPreds
	headVar  int // slot of the head variable, or -1 for propositional heads
	anchor   int // slot grounded by the outer loop, or -1 if nvars == 0
	steps    []planStep
	checks   []binEdge // non-spanning-tree binary atoms, verified post hoc
	unary    []unaryCheck
	idbUnary []idbUnaryRef
	idbProp  []int // indices into Plan.propPreds
}

// compileLinear builds the grounding plan for a connected rule. It is
// tree-independent: the plan can be prepared once and run against any
// number of documents. It runs on the builder because it interns
// labels — the only Plan mutation, confined to construction.
func (bld planBuilder) compileLinear(r datalog.Rule, idb map[string]bool) (*linearRule, error) {
	pl := bld.pl
	lr := &linearRule{src: r, headVar: -1, anchor: -1, headPred: r.Head.Pred}
	slot := map[string]int{}
	getSlot := func(t datalog.Term) (int, error) {
		if !t.IsVar() {
			return 0, fmt.Errorf("eval: constants are not supported by the linear tree engine (rule %s)", r)
		}
		s, ok := slot[t.Var]
		if !ok {
			s = lr.nvars
			slot[t.Var] = s
			lr.nvars++
		}
		return s, nil
	}
	var edges []binEdge
	for _, b := range r.Body {
		switch len(b.Args) {
		case 0:
			if !idb[b.Pred] {
				return nil, nil // propositional atom with no rules: dead rule
			}
			lr.idbProp = append(lr.idbProp, pl.propID[b.Pred])
		case 1:
			v, err := getSlot(b.Args[0])
			if err != nil {
				return nil, err
			}
			if idb[b.Pred] {
				lr.idbUnary = append(lr.idbUnary, idbUnaryRef{pl.unaryID[b.Pred], v})
			} else if kind, label, ok := classifyUnary(b.Pred); ok {
				lr.unary = append(lr.unary, unaryCheck{kind: kind, labelIdx: bld.labelIdx(label), v: v})
			} else {
				// Neither extensional nor the head of any rule: the body
				// atom can never be satisfied, so the rule is dead.
				return nil, nil
			}
		case 2:
			if idb[b.Pred] {
				return nil, fmt.Errorf("eval: binary intensional predicate %s is not monadic", b.Pred)
			}
			e := binEdge{pred: b.Pred}
			switch b.Pred {
			case PredFirstChild:
				e.kind = binFirstChild
			case PredNextSibling:
				e.kind = binNextSibling
			case PredLastChild:
				e.kind = binLastChild
			case PredChild:
				return nil, fmt.Errorf("eval: child/2 lacks the functional dependency $1→$2 required by Theorem 4.2; eliminate it with tmnf.Transform first")
			default:
				if k, ok := IsChildKPred(b.Pred); ok {
					e.kind, e.k = binChildK, k
				} else {
					return nil, fmt.Errorf("eval: unknown binary predicate %s", b.Pred)
				}
			}
			var err error
			if e.x, err = getSlot(b.Args[0]); err != nil {
				return nil, err
			}
			if e.y, err = getSlot(b.Args[1]); err != nil {
				return nil, err
			}
			edges = append(edges, e)
		default:
			return nil, fmt.Errorf("eval: atom %s has arity > 2", b)
		}
	}
	if len(r.Head.Args) == 1 {
		hv, err := getSlot(r.Head.Args[0])
		if err != nil {
			return nil, err
		}
		lr.headVar = hv
		lr.headID = pl.unaryID[r.Head.Pred]
	} else if len(r.Head.Args) > 1 {
		return nil, fmt.Errorf("eval: non-monadic head %s", r.Head)
	} else {
		lr.headID = pl.propID[r.Head.Pred]
	}

	// Build the spanning traversal from the anchor over the variable graph.
	if lr.nvars > 0 {
		if lr.headVar >= 0 {
			lr.anchor = lr.headVar
		} else {
			lr.anchor = 0
		}
		visited := make([]bool, lr.nvars)
		used := make([]bool, len(edges))
		visited[lr.anchor] = true
		frontier := []int{lr.anchor}
		for len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for ei, e := range edges {
				if used[ei] {
					continue
				}
				switch {
				case e.x == v && !visited[e.y]:
					used[ei] = true
					visited[e.y] = true
					lr.steps = append(lr.steps, planStep{edge: e, forward: true})
					frontier = append(frontier, e.y)
				case e.y == v && !visited[e.x]:
					used[ei] = true
					visited[e.x] = true
					lr.steps = append(lr.steps, planStep{edge: e, forward: false})
					frontier = append(frontier, e.x)
				case (e.x == v || e.y == v) && visited[e.x] && visited[e.y]:
					used[ei] = true
					lr.checks = append(lr.checks, e)
				}
			}
		}
		for s := 0; s < lr.nvars; s++ {
			if !visited[s] {
				return nil, fmt.Errorf("eval: rule is not connected (SplitConnected must run first): %s", r)
			}
		}
		for ei, e := range edges {
			if !used[ei] {
				lr.checks = append(lr.checks, e)
			}
		}
	}
	return lr, nil
}

// LinearTree evaluates a monadic datalog program over the τ_ur / τ_rk
// representation of t in time O(|P| · |dom|) (Theorem 4.2). The result
// contains only the intensional relations.
//
// LinearTree prepares the grounding plan anew on every call; use
// NewPlan + Plan.Run to amortize that work across many documents.
func LinearTree(p *datalog.Program, t *tree.Tree) (*datalog.Database, error) {
	pl, err := NewPlan(p)
	if err != nil {
		return nil, err
	}
	return pl.Run(NewNav(t), nil)
}
