// Package tree implements the ordered labeled trees of Gottlob & Koch
// (PODS 2002), both unranked and ranked, together with the relational
// views τ_ur and τ_rk of Section 2 of the paper.
//
// An unranked ordered tree is exposed as the relational structure
//
//	τ_ur = ⟨dom, root, leaf, (label_a)_{a∈Σ}, firstchild, nextsibling, lastsibling⟩
//
// and a ranked tree (with maximum rank K) as
//
//	τ_rk = ⟨dom, root, leaf, (child_k)_{k≤K}, (label_a)_{a∈Σ}⟩.
//
// Nodes are identified by their document-order (preorder) index, which
// coincides with the document order relation ≺ of Example 2.5.
package tree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Node is a node of an ordered, labeled, unranked tree. Children are
// ordered left to right. The zero value is not useful; construct trees
// with New and (*Node).Add, or via Parse.
type Node struct {
	// Label is the node's symbol from the (conceptually finite) alphabet Σ.
	Label string
	// Text carries optional character data (used by the HTML substrate
	// for #text nodes). It is not part of the τ_ur signature.
	Text string
	// Attrs carries optional attributes (HTML substrate). Not part of τ_ur.
	Attrs map[string]string

	// ID is the document-order (preorder) index of the node, assigned by
	// Tree.index. IDs are dense in [0, |dom|).
	ID int

	Parent   *Node
	Children []*Node

	// pos caches the node's 0-based position among its siblings, so
	// NextSibling/PrevSibling are O(1) instead of scanning the parent's
	// child list (quadratic on wide nodes). It is maintained by Add,
	// Reindex and FromArena; childIndex validates it before trusting it,
	// so hand-mutated trees degrade to the scan instead of misbehaving.
	pos int
}

// New returns a fresh node with the given label and children,
// setting parent pointers.
func New(label string, children ...*Node) *Node {
	n := &Node{Label: label, Children: children}
	for i, c := range children {
		c.Parent = n
		c.pos = i
	}
	return n
}

// Text returns a fresh #text node carrying the given character data.
// The label "#text" is the reserved text-node symbol of the HTML substrate.
func NewText(text string) *Node {
	return &Node{Label: "#text", Text: text}
}

// Add appends children to n, setting their parent pointers, and
// returns n for chaining.
func (n *Node) Add(children ...*Node) *Node {
	for i, c := range children {
		c.Parent = n
		c.pos = len(n.Children) + i
	}
	n.Children = append(n.Children, children...)
	return n
}

// FirstChild returns the leftmost child of n, or nil.
func (n *Node) FirstChild() *Node {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[0]
}

// LastChild returns the rightmost child of n, or nil.
func (n *Node) LastChild() *Node {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[len(n.Children)-1]
}

// childIndex returns i such that n is the i-th child (0-based) of its
// parent, or -1 if n has no parent. The cached position makes this
// O(1) on trees built through the package constructors; the scan is
// the fallback for hand-rewired trees whose cache is stale.
func (n *Node) childIndex() int {
	if n.Parent == nil {
		return -1
	}
	if n.pos < len(n.Parent.Children) && n.Parent.Children[n.pos] == n {
		return n.pos
	}
	for i, c := range n.Parent.Children {
		if c == n {
			n.pos = i
			return i
		}
	}
	return -1
}

// NextSibling returns the sibling immediately to the right of n, or nil.
func (n *Node) NextSibling() *Node {
	i := n.childIndex()
	if i < 0 || i+1 >= len(n.Parent.Children) {
		return nil
	}
	return n.Parent.Children[i+1]
}

// PrevSibling returns the sibling immediately to the left of n, or nil.
func (n *Node) PrevSibling() *Node {
	i := n.childIndex()
	if i <= 0 {
		return nil
	}
	return n.Parent.Children[i-1]
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsRoot reports whether n has no parent.
func (n *Node) IsRoot() bool { return n.Parent == nil }

// IsLastSibling reports whether n is the rightmost child of its parent.
// Following the paper, the root is NOT a last sibling (it has no parent).
func (n *Node) IsLastSibling() bool {
	return n.Parent != nil && n.Parent.Children[len(n.Parent.Children)-1] == n
}

// IsFirstSibling reports whether n is the leftmost child of its parent.
// Symmetrically to IsLastSibling, the root is not a first sibling.
func (n *Node) IsFirstSibling() bool {
	return n.Parent != nil && n.Parent.Children[0] == n
}

// Tree is an indexed unranked ordered tree: a root plus the node list
// in document order. Node IDs index into Nodes.
//
// A tree has two representations: the *Node view (Root, Nodes) and
// the struct-of-arrays Arena. Every exported constructor (NewTree,
// Parse, FromArena and the HTML parsers built on it) fills in Root and
// Nodes. OfArena builds an arena-only tree instead: Root and Nodes
// stay nil and View builds the pointer view on first use, so a
// document that is only ever evaluated never allocates one *Node.
// Code that may receive either kind reads the view through View.
type Tree struct {
	Root *Node
	// Nodes lists all nodes in document order; Nodes[i].ID == i.
	Nodes []*Node

	// arena memoizes the struct-of-arrays representation (see Arena).
	arena atomic.Pointer[Arena]
	// gen accumulates the generations of dropped arenas plus one per
	// Reindex, so Generation stays monotonic across arena rebuilds.
	gen atomic.Uint64

	// arenaOnly marks a tree built by OfArena, whose pointer view lives
	// in view rather than in Root/Nodes.
	arenaOnly bool
	// view memoizes the pointer view View built, stamped with the
	// arena generation it describes; viewMu serializes the build so
	// concurrent first callers share one view.
	view   atomic.Pointer[nodeView]
	viewMu sync.Mutex
}

// nodeView is a pointer view built on demand, valid for one arena
// generation.
type nodeView struct {
	gen   uint64
	nodes []*Node
}

// View returns the tree's *Node view in document order: View()[0] is
// the root and View()[i].ID == i. It is the one accessor internal code
// uses for the pointer view. For a tree whose Root/Nodes are filled in
// and whose arena was never mutated it returns Nodes. For an
// arena-only tree it builds the view on first use and memoizes it;
// concurrent first callers block on one build and share its result.
// Once the arena has been mutated in place (a live Document), the view
// is the canonical live tree of the current generation — fresh
// preorder ids over the live nodes, the numbering a reparse of the
// current content would give — rebuilt after each further edit, so it
// is never stale. Treat the returned nodes as read-only.
func (t *Tree) View() []*Node {
	a := t.arena.Load()
	if !t.arenaOnly && (a == nil || !a.Mutated()) {
		return t.Nodes
	}
	g := a.Gen()
	if v := t.view.Load(); v != nil && v.gen == g {
		return v.nodes
	}
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if v := t.view.Load(); v != nil && v.gen == g {
		return v.nodes
	}
	v := &nodeView{gen: g, nodes: buildView(a)}
	t.view.Store(v)
	return v.nodes
}

// HasView reports whether t's pointer view exists: always for trees
// whose Root and Nodes are filled in, and for an arena-only tree once
// View has built it. Tests use it to pin which paths stay pointer-free.
func HasView(t *Tree) bool { return !t.arenaOnly || t.view.Load() != nil }

// Generation identifies the tree's current shape: it changes whenever
// the tree is reindexed after pointer-level mutation or its arena is
// mutated in place, and never repeats a previous value for a previous
// shape. Caches key memos by (tree, generation) so post-mutation reads
// can never observe a pre-mutation memo.
func (t *Tree) Generation() uint64 {
	g := t.gen.Load()
	if a := t.arena.Load(); a != nil {
		g += a.Gen()
	}
	return g
}

// NewTree indexes the tree rooted at root and returns it. It assigns
// document-order IDs and fixes parent pointers (so hand-built trees
// need not set them).
func NewTree(root *Node) *Tree {
	t := &Tree{Root: root}
	t.Reindex()
	return t
}

// Reindex reassigns document-order IDs after structural modification
// and drops any memoized arena (it would describe the old shape).
// It advances Generation past anything the dropped arena reached, so
// generation-keyed memos of the old shape can never be served again.
// An arena-only tree first adopts its view as Root and Nodes.
func (t *Tree) Reindex() {
	if t.arenaOnly {
		t.Root = t.View()[0]
		t.arenaOnly = false
	}
	t.view.Store(nil)
	bump := uint64(1)
	if a := t.arena.Load(); a != nil {
		bump += a.Gen()
	}
	t.gen.Add(bump)
	t.Nodes = t.Nodes[:0]
	var walk func(n, parent *Node)
	walk = func(n, parent *Node) {
		n.Parent = parent
		n.ID = len(t.Nodes)
		t.Nodes = append(t.Nodes, n)
		for i, c := range n.Children {
			c.pos = i
			walk(c, n)
		}
	}
	walk(t.Root, nil)
	t.arena.Store(nil)
}

// Size returns |dom|, the number of nodes — of the live nodes once the
// arena has been mutated in place, matching View.
func (t *Tree) Size() int {
	if a := t.arena.Load(); a != nil {
		return a.NumAlive()
	}
	return len(t.Nodes)
}

// Labels returns the sorted set of labels occurring in the tree.
func (t *Tree) Labels() []string {
	a := t.Arena()
	seen := make([]bool, a.Syms.Len())
	var out []string
	for v, sym := range a.Label {
		if !seen[sym] && a.Alive(int32(v)) {
			seen[sym] = true
			out = append(out, a.Syms.Name(sym))
		}
	}
	sort.Strings(out)
	return out
}

// MaxRank returns the maximum number of children of any node.
func (t *Tree) MaxRank() int {
	a := t.Arena()
	k := 0
	for v := range a.FirstChild {
		if !a.Alive(int32(v)) {
			continue
		}
		n := 0
		for c := a.FirstChild[v]; c != NoNode; c = a.NextSibling[c] {
			n++
		}
		k = max(k, n)
	}
	return k
}

// Depth returns the length of the longest root-to-leaf path, counted
// in edges (a single-node tree has depth 0).
func (t *Tree) Depth() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		d := -1
		for _, c := range n.Children {
			if cd := rec(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	return rec(t.View()[0])
}

// Clone returns a deep copy of the tree (Attrs maps are copied).
func (t *Tree) Clone() *Tree {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{Label: n.Label, Text: n.Text}
		if n.Attrs != nil {
			m.Attrs = make(map[string]string, len(n.Attrs))
			for k, v := range n.Attrs {
				m.Attrs[k] = v
			}
		}
		for _, c := range n.Children {
			m.Add(cp(c))
		}
		return m
	}
	return NewTree(cp(t.View()[0]))
}

// Equal reports structural equality of labels, shapes and text.
func (t *Tree) Equal(u *Tree) bool {
	var eq func(a, b *Node) bool
	eq = func(a, b *Node) bool {
		if a.Label != b.Label || a.Text != b.Text || len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !eq(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	return eq(t.View()[0], u.View()[0])
}

// String renders the tree in the term syntax accepted by Parse,
// e.g. "a(b,c(d))".
func (t *Tree) String() string {
	var b strings.Builder
	writeTerm(&b, t.View()[0])
	return b.String()
}

func writeTerm(b *strings.Builder, n *Node) {
	b.WriteString(n.Label)
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		writeTerm(b, c)
	}
	b.WriteByte(')')
}

// Pretty renders the tree with one node per line, indented by depth,
// annotating each node with its document-order ID.
func (t *Tree) Pretty() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s [%d]\n", strings.Repeat("  ", depth), n.Label, n.ID)
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(t.View()[0], 0)
	return b.String()
}

// Parse reads a tree in term syntax: label, optionally followed by a
// parenthesized comma-separated list of subtrees. Labels consist of
// letters, digits, '_', '#', and '-'. Whitespace is ignored.
//
//	a(b, c(d, e), f)
func Parse(s string) (*Tree, error) {
	p := &termParser{src: s}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree: trailing input at offset %d in %q", p.pos, s)
	}
	return NewTree(n), nil
}

// MustParse is Parse, panicking on error. Intended for tests and examples.
func MustParse(s string) *Tree {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

type termParser struct {
	src string
	pos int
}

func (p *termParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func isLabelByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' ||
		b == '_' || b == '#' || b == '-'
}

func (p *termParser) parseNode() (*Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("tree: expected label at offset %d in %q", p.pos, p.src)
	}
	n := &Node{Label: p.src[start:p.pos]}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			c, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.Add(c)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("tree: unclosed '(' in %q", p.src)
			}
			switch p.src[p.pos] {
			case ',':
				p.pos++
			case ')':
				p.pos++
				return n, nil
			default:
				return nil, fmt.Errorf("tree: unexpected %q at offset %d in %q", p.src[p.pos], p.pos, p.src)
			}
		}
	}
	return n, nil
}
