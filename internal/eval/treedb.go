// Package eval implements the evaluation algorithms of Gottlob & Koch
// (PODS 2002) for (monadic) datalog:
//
//   - the linear-time combined-complexity engine for monadic datalog
//     over τ_rk / τ_ur (Theorem 4.2): connected-rule splitting, grounding
//     driven by the functional dependencies of Proposition 4.1, and
//     propositional Horn inference (Proposition 3.5);
//   - the O(|P|·|σ|) engine for extensionally guarded programs
//     (Proposition 3.6);
//   - the O(|P|·|σ|) engine for monadic Datalog LIT (Proposition 3.7);
//   - ground program evaluation in O(|P|+|σ|) (Proposition 3.5);
//   - generic naive/semi-naive evaluation (re-exported baselines).
//
// It also converts trees into the relational structures τ_ur and τ_rk
// of Section 2.
package eval

import (
	"strings"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// LabelPred returns the predicate name used for label_a relations.
func LabelPred(label string) string { return "label_" + label }

// IsLabelPred reports whether the predicate is a label predicate and,
// if so, returns the label.
func IsLabelPred(pred string) (string, bool) {
	if strings.HasPrefix(pred, "label_") {
		return pred[len("label_"):], true
	}
	return "", false
}

// Names of the relations of τ_ur and its extensions.
const (
	PredRoot         = "root"
	PredLeaf         = "leaf"
	PredLastSibling  = "lastsibling"
	PredFirstSibling = "firstsibling"
	PredFirstChild   = "firstchild"
	PredNextSibling  = "nextsibling"
	PredChild        = "child"
	PredLastChild    = "lastchild"
	PredDom          = "dom"
)

// ChildKPred returns the predicate name of the child_k relation of τ_rk.
func ChildKPred(k int) string {
	// child_1, child_2, ...
	return "child_" + itoa(k)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// IsChildKPred reports whether pred is child_k, returning k.
func IsChildKPred(pred string) (int, bool) {
	if !strings.HasPrefix(pred, "child_") {
		return 0, false
	}
	s := pred[len("child_"):]
	if s == "" {
		return 0, false
	}
	k := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		k = k*10 + int(s[i]-'0')
	}
	return k, k >= 1
}

// TreeDBOption configures TreeDB.
type TreeDBOption func(*treeDBConfig)

type treeDBConfig struct {
	child, lastChild, firstSibling, dom bool
	childK                              int
}

// WithChild adds the natural child/2 relation (not part of τ_ur; see
// Theorem 5.2 for its elimination).
func WithChild() TreeDBOption { return func(c *treeDBConfig) { c.child = true } }

// WithLastChild adds the lastchild/2 relation.
func WithLastChild() TreeDBOption { return func(c *treeDBConfig) { c.lastChild = true } }

// WithFirstSibling adds the firstsibling/1 relation used by Elog⁻.
func WithFirstSibling() TreeDBOption { return func(c *treeDBConfig) { c.firstSibling = true } }

// WithDom adds the trivially-true dom/1 relation over all nodes.
func WithDom() TreeDBOption { return func(c *treeDBConfig) { c.dom = true } }

// WithChildK adds the ranked child_1 ... child_k relations of τ_rk.
func WithChildK(k int) TreeDBOption { return func(c *treeDBConfig) { c.childK = k } }

// TreeDB materializes the relational structure τ_ur (optionally
// extended) of the given tree as a datalog database, for use with the
// generic evaluators. The specialized engines work on the tree
// directly and do not need this. It iterates the tree's arena columns,
// so materialization is O(|dom|) even on very wide nodes (the pointer
// API's sibling scan made it quadratic there).
func TreeDB(t *tree.Tree, opts ...TreeDBOption) *datalog.Database {
	var cfg treeDBConfig
	for _, o := range opts {
		o(&cfg)
	}
	a := t.Arena()
	n := a.Len()
	db := datalog.NewDatabase(n)
	// Pre-resolve every relation handle; facts are unique by
	// construction, so they bulk-load without membership hashing.
	// Label relations materialize on first occurrence — the symbol
	// table may hold pre-interned labels the document never uses.
	labelRels := make([]*datalog.Relation, a.Syms.Len())
	labelRel := func(sym int32) *datalog.Relation {
		rel := labelRels[sym]
		if rel == nil {
			rel = db.Rel(LabelPred(a.Syms.Name(sym)), 1)
			labelRels[sym] = rel
		}
		return rel
	}
	relRoot := db.Rel(PredRoot, 1)
	relLeaf := db.Rel(PredLeaf, 1)
	relLast := db.Rel(PredLastSibling, 1)
	relFC := db.Rel(PredFirstChild, 2)
	relNS := db.Rel(PredNextSibling, 2)
	var relFirst, relDom, relChild, relLastChild *datalog.Relation
	if cfg.firstSibling {
		relFirst = db.Rel(PredFirstSibling, 1)
	}
	if cfg.dom {
		relDom = db.Rel(PredDom, 1)
	}
	if cfg.child {
		relChild = db.Rel(PredChild, 2)
	}
	if cfg.lastChild {
		relLastChild = db.Rel(PredLastChild, 2)
	}
	childKRels := make([]*datalog.Relation, cfg.childK)
	for k := range childKRels {
		childKRels[k] = db.Rel(ChildKPred(k+1), 2)
	}
	// Tuples are carved from growing slabs: previously returned
	// sub-slices stay valid when the slab reallocates.
	var slab1, slab2 []int
	unary := func(v int) []int {
		slab1 = append(slab1, v)
		return slab1[len(slab1)-1 : len(slab1) : len(slab1)]
	}
	binary := func(v, w int) []int {
		slab2 = append(slab2, v, w)
		return slab2[len(slab2)-2 : len(slab2) : len(slab2)]
	}
	for v := 0; v < n; v++ {
		// Tombstoned rows of a mutated arena carry no facts: the
		// document is its live nodes. Live columns never reference dead
		// nodes, so every emitted tuple stays within the live set.
		if !a.Alive(int32(v)) {
			continue
		}
		labelRel(a.Label[v]).AddUnchecked(unary(v))
		if a.Parent[v] == tree.NoNode {
			relRoot.AddUnchecked(unary(v))
		} else if a.NextSibling[v] == tree.NoNode {
			relLast.AddUnchecked(unary(v))
		}
		if a.FirstChild[v] == tree.NoNode {
			relLeaf.AddUnchecked(unary(v))
		} else {
			relFC.AddUnchecked(binary(v, int(a.FirstChild[v])))
		}
		if ns := a.NextSibling[v]; ns != tree.NoNode {
			relNS.AddUnchecked(binary(v, int(ns)))
		}
		if relFirst != nil && a.PrevSibling[v] == tree.NoNode && a.Parent[v] != tree.NoNode {
			relFirst.AddUnchecked(unary(v))
		}
		if relChild != nil {
			for c := a.FirstChild[v]; c != tree.NoNode; c = a.NextSibling[c] {
				relChild.AddUnchecked(binary(v, int(c)))
			}
		}
		if relLastChild != nil {
			if lc := a.LastChild[v]; lc != tree.NoNode {
				relLastChild.AddUnchecked(binary(v, int(lc)))
			}
		}
		if len(childKRels) > 0 {
			k := 0
			for c := a.FirstChild[v]; c != tree.NoNode && k < len(childKRels); c = a.NextSibling[c] {
				childKRels[k].AddUnchecked(binary(v, int(c)))
				k++
			}
		}
		if relDom != nil {
			relDom.AddUnchecked(unary(v))
		}
	}
	return db
}

// Nav exposes the O(1) navigation arrays of a tree, the representation
// on which the linear-time engine realizes the functional dependencies
// of Proposition 4.1 ("appropriately represented" trees, Theorem 4.2).
// Since the arena IS that representation, a Nav over an arena-backed
// tree aliases the arena columns with no copying; labels are interned
// symbol ids, so the engine's label tests are integer compares.
type Nav struct {
	// FC, NS, Parent, Prev, LastChild map node id → node id or -1.
	FC, NS, Parent, Prev, LastChild []int32
	// Label holds per-node symbol ids resolved against Syms.
	Label []int32
	Syms  *tree.Symbols
	// Dead marks tombstoned rows of a mutated arena (nil when every row
	// is live). Engines skip dead anchors; since live columns never
	// reference dead nodes, non-anchor slots are live for free.
	Dead []bool
}

// Alive reports whether node v exists in the current document.
func (nav *Nav) Alive(v int) bool { return nav.Dead == nil || !nav.Dead[v] }

// NewNav returns the navigation view of t, aliasing its arena (built
// on first use, O(|dom|), and memoized on the tree).
func NewNav(t *tree.Tree) *Nav {
	return NavOf(t.Arena())
}

// NavOf wraps a bare arena — the zero-copy path for pipelines that
// parse straight into an arena and never materialize the *Node view
// (e.g. html.ParseArena → Plan.Run).
func NavOf(a *tree.Arena) *Nav {
	return &Nav{
		FC: a.FirstChild, NS: a.NextSibling, Parent: a.Parent,
		Prev: a.PrevSibling, LastChild: a.LastChild,
		Label: a.Label, Syms: a.Syms, Dead: a.Dead(),
	}
}

// NewNavFromNodes builds the navigation arrays by walking the pointer
// view, without consulting or creating the tree's arena. It is the
// pre-arena construction path, retained as the baseline for the
// substrate benchmarks and for differential tests.
func NewNavFromNodes(t *tree.Tree) *Nav {
	n := t.Size()
	nav := &Nav{
		FC:        make([]int32, n),
		NS:        make([]int32, n),
		Parent:    make([]int32, n),
		Prev:      make([]int32, n),
		LastChild: make([]int32, n),
		Label:     make([]int32, n),
		Syms:      tree.NewSymbols(),
	}
	for i := range nav.FC {
		nav.FC[i], nav.NS[i], nav.Parent[i], nav.Prev[i], nav.LastChild[i] = -1, -1, -1, -1, -1
	}
	for _, nd := range t.View() {
		nav.Label[nd.ID] = nav.Syms.Intern(nd.Label)
		if len(nd.Children) > 0 {
			nav.FC[nd.ID] = int32(nd.Children[0].ID)
			nav.LastChild[nd.ID] = int32(nd.Children[len(nd.Children)-1].ID)
		}
		for i, c := range nd.Children {
			nav.Parent[c.ID] = int32(nd.ID)
			if i > 0 {
				nav.Prev[c.ID] = int32(nd.Children[i-1].ID)
			}
			if i+1 < len(nd.Children) {
				nav.NS[c.ID] = int32(nd.Children[i+1].ID)
			}
		}
	}
	return nav
}

// Dom returns |dom|, the number of nodes.
func (nav *Nav) Dom() int { return len(nav.Parent) }

// ChildK returns the k-th (1-based) child of v, or -1, by walking
// at most k sibling steps.
func (nav *Nav) ChildK(v, k int) int {
	if k < 1 {
		return -1
	}
	c := int(nav.FC[v])
	for ; k > 1 && c != -1; k-- {
		c = int(nav.NS[c])
	}
	return c
}

// childKParent inverts child_k: v's parent if v is its k-th (1-based)
// child, else -1. It walks at most k PrevSibling steps, the mirror of
// ChildK.
func (nav *Nav) childKParent(v, k int) int {
	c := v
	for ; k > 1 && c != -1; k-- {
		c = int(nav.Prev[c])
	}
	if k != 1 || c == -1 || nav.Prev[c] != -1 {
		return -1
	}
	return int(nav.Parent[v])
}

// LabelID resolves a label string against the nav's symbol table; -1
// if the label does not occur in the tree (so it matches no node).
func (nav *Nav) LabelID(label string) int32 { return nav.Syms.ID(label) }

// unaryKind enumerates the unary extensional predicates of τ_ur and
// its extensions, pre-classified at plan-compile time so the per-node
// test in the grounding hot loop is a switch on an int plus at most
// two array reads.
type unaryKind uint8

const (
	uLabel unaryKind = iota
	uRoot
	uLeaf
	uLastSibling
	uFirstSibling
	uDom
)

// classifyUnary maps a predicate name to its kind (and label, for
// label_a); ok=false if pred is not a known unary EDB predicate.
func classifyUnary(pred string) (kind unaryKind, label string, ok bool) {
	switch pred {
	case PredRoot:
		return uRoot, "", true
	case PredLeaf:
		return uLeaf, "", true
	case PredLastSibling:
		return uLastSibling, "", true
	case PredFirstSibling:
		return uFirstSibling, "", true
	case PredDom:
		return uDom, "", true
	}
	if label, isLabel := IsLabelPred(pred); isLabel {
		return uLabel, label, true
	}
	return 0, "", false
}

// IsUnaryEDB reports whether pred names a unary extensional relation
// of τ_ur or one of its extensions (root, leaf, lastsibling,
// firstsibling, dom, label_a). The classification depends only on the
// predicate name, so rule compilation can happen before any tree is
// seen.
func IsUnaryEDB(pred string) bool {
	_, _, ok := classifyUnary(pred)
	return ok
}

// IsBinaryEDB reports whether pred names a binary extensional tree
// relation some engine can materialize or navigate (firstchild,
// nextsibling, child, lastchild, child_k). A binary body atom outside
// this set is a diagnosable mistake — the linear engine rejects it —
// so rewrites must not remove the rules that carry one.
func IsBinaryEDB(pred string) bool {
	switch pred {
	case PredFirstChild, PredNextSibling, PredChild, PredLastChild:
		return true
	}
	_, ok := IsChildKPred(pred)
	return ok
}

// Signature records the extensional relations beyond the τ_ur core
// whose presence changes how a program is evaluated.
type Signature struct {
	// Child is set when the program reads child/2, which the grounding
	// engines cannot evaluate without the Theorem 5.2 rewrite.
	Child bool
	// ChildK is the largest k of any child_k atom (τ_rk), 0 if none; it
	// sizes the child_k relations of a TreeDB.
	ChildK int
}

// SignatureOf scans the program's atoms for the extensional relations
// it can read. Unknown predicates are ignored: they are either IDB or
// will be rejected by the engine itself.
func SignatureOf(p *datalog.Program) Signature {
	var s Signature
	see := func(a datalog.Atom) {
		if a.Pred == PredChild {
			s.Child = true
		} else if k, ok := IsChildKPred(a.Pred); ok && k > s.ChildK {
			s.ChildK = k
		}
	}
	for _, r := range p.Rules {
		see(r.Head)
		for _, b := range r.Body {
			see(b)
		}
	}
	return s
}
