package tree

// This file implements the arena-backed, struct-of-arrays tree
// representation: the "appropriately represented" trees of Theorem 4.2
// made concrete as dense preorder arrays. Each node is a row index;
// labels are interned symbols; the navigation relations of τ_ur
// (firstchild, nextsibling, lastsibling, parent, ...) are flat int32
// columns, so the evaluation hot path indexes arrays instead of
// chasing *Node pointers, and an entire 100k-node document costs a
// handful of allocations instead of one per node.
//
// The pointer-per-node *Node API remains the compatibility view:
// FromArena materializes it from slabs eagerly, OfArena defers it to
// the first Tree.View call, and Tree.Arena() converts a hand-built
// pointer tree into its arena on first use.

// NoNode is the sentinel for "no such node" in arena columns.
const NoNode int32 = -1

// Symbols interns label strings as dense int32 ids, so label
// comparisons in the evaluation hot path are integer compares and each
// distinct label is stored once per document (or once per corpus when
// a table is shared between documents).
//
// Intern must not be called concurrently; lookups (ID, Name) are safe
// once interning is done. The zero value is not ready; use NewSymbols.
type Symbols struct {
	names []string
	ids   map[string]int32
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{ids: make(map[string]int32, 16)}
}

// Intern returns the id of name, assigning the next free id on first
// sight.
func (s *Symbols) Intern(name string) int32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.names))
	s.names = append(s.names, name)
	s.ids[name] = id
	return id
}

// InternBytes is Intern for a byte slice; it allocates only when the
// label is seen for the first time (the map lookup itself is
// allocation-free).
func (s *Symbols) InternBytes(name []byte) int32 {
	if id, ok := s.ids[string(name)]; ok {
		return id
	}
	return s.Intern(string(name))
}

// ID returns the id of name, or -1 if name was never interned.
func (s *Symbols) ID(name string) int32 {
	if id, ok := s.ids[name]; ok {
		return id
	}
	return -1
}

// IDBytes is ID for a byte slice, without allocating.
func (s *Symbols) IDBytes(name []byte) int32 {
	if id, ok := s.ids[string(name)]; ok {
		return id
	}
	return -1
}

// Name returns the string for an interned id.
func (s *Symbols) Name(id int32) string { return s.names[id] }

// Len returns the number of interned symbols.
func (s *Symbols) Len() int { return len(s.names) }

// Arena is an ordered labeled tree in struct-of-arrays form. Rows are
// document-order (preorder) node ids, so Arena indexes agree with
// Node.ID and with the document order ≺ of Example 2.5. All navigation
// columns hold node ids or NoNode.
//
// An Arena is safe for concurrent reads. Mutation (see mutate.go) is
// append-and-tombstone, must be serialized by the caller, and must not
// race with readers — long-lived documents wrap the arena in a
// Document that provides that serialization. Trees are limited to
// 2^31-1 nodes.
type Arena struct {
	// Syms interns the labels appearing in Label.
	Syms *Symbols
	// Label[v] is the symbol id of node v's label.
	Label []int32
	// Parent[v], FirstChild[v], NextSibling[v], PrevSibling[v],
	// LastChild[v] are the navigation partial functions of
	// Proposition 4.1. A node's position among its siblings is not
	// stored: ChildK walks NextSibling from the parent and the inverse
	// of child_k walks PrevSibling, both O(k), so a splice rewires only
	// its immediate neighbors.
	Parent, FirstChild, NextSibling, PrevSibling, LastChild []int32
	// Blob concatenates all character data; TextStart/TextEnd[v] span
	// node v's text within it. One string for the whole document means
	// text storage costs one allocation and no per-node pointers for
	// the garbage collector to scan; Text returns zero-copy substrings.
	Blob               string
	TextStart, TextEnd []int32
	// Attrs holds the attribute maps of the (typically few) nodes that
	// have any. Builders may share one map between nodes with
	// identical attribute sets; treat the maps as read-only. The *Node
	// view gives each Node a private copy.
	Attrs map[int32]map[string]string

	// Mutation state (see mutate.go). A freshly built arena has gen 0,
	// no tombstones and no text overrides; the mutation API bumps gen,
	// fills dead lazily on the first removal, and stores replaced text
	// out of line (Blob itself stays immutable).
	gen      uint64 // accessed atomically
	dead     []bool // dead[v] reports node v tombstoned; nil when none
	numDead  int
	textOver map[int32]string // retexts and inserted-node text, by id
}

// Len returns |dom|, the number of nodes.
func (a *Arena) Len() int { return len(a.Label) }

// LabelName returns node v's label as a string.
func (a *Arena) LabelName(v int32) string { return a.Syms.Name(a.Label[v]) }

// Text returns node v's character data as a zero-copy substring of
// the document blob ("" for nodes without text). Replaced text (and
// the text of nodes inserted after construction) lives out of line and
// shadows the blob span.
func (a *Arena) Text(v int32) string {
	if a.textOver != nil {
		if s, ok := a.textOver[v]; ok {
			return s
		}
	}
	return a.Blob[a.TextStart[v]:a.TextEnd[v]]
}

// ChildK returns the k-th (1-based) child of v, or NoNode. It walks
// the sibling chain, so it costs O(k); the τ_rk arities k in real
// programs are small constants.
func (a *Arena) ChildK(v int32, k int) int32 {
	if k < 1 {
		return NoNode
	}
	c := a.FirstChild[v]
	for k > 1 && c != NoNode {
		c = a.NextSibling[c]
		k--
	}
	return c
}

// ArenaBuilder constructs an Arena in a single preorder pass: Open
// starts a node as the next child of the currently open node, Close
// ends it. The builder maintains sibling/parent links incrementally,
// so construction is O(1) per node with no per-node allocations.
type ArenaBuilder struct {
	a     Arena
	blob  []byte // character data under construction (Arena.Blob)
	stack []int32
}

// NewArenaBuilder returns a builder with a fresh symbol table.
func NewArenaBuilder() *ArenaBuilder {
	return &ArenaBuilder{a: Arena{Syms: NewSymbols()}}
}

// Syms exposes the builder's symbol table, so callers can pre-intern
// the labels they emit frequently and use OpenSym directly.
func (b *ArenaBuilder) Syms() *Symbols { return b.a.Syms }

// Grow pre-sizes the arrays for n expected nodes.
func (b *ArenaBuilder) Grow(n int) {
	for _, s := range b.columns() {
		if cap(*s) < n {
			*s = withCap(*s, n)
		}
	}
}

// columns lists the arena's int32 columns, for whole-arena resizes.
func (b *ArenaBuilder) columns() []*[]int32 {
	a := &b.a
	return []*[]int32{&a.Label, &a.Parent, &a.FirstChild, &a.NextSibling,
		&a.PrevSibling, &a.LastChild, &a.TextStart, &a.TextEnd}
}

// withCap copies s into a fresh slice of capacity n ≥ len(s).
func withCap(s []int32, n int) []int32 {
	t := make([]int32, len(s), n)
	copy(t, s)
	return t
}

// Open appends a new node labeled label as the next child of the
// currently open node (or as the root) and makes it the open node.
// It returns the new node's id.
func (b *ArenaBuilder) Open(label string) int32 {
	return b.OpenSym(b.a.Syms.Intern(label))
}

// OpenSym is Open for a pre-interned label symbol.
func (b *ArenaBuilder) OpenSym(sym int32) int32 {
	a := &b.a
	id := int32(len(a.Label))
	a.Label = append(a.Label, sym)
	a.FirstChild = append(a.FirstChild, NoNode)
	a.NextSibling = append(a.NextSibling, NoNode)
	a.PrevSibling = append(a.PrevSibling, NoNode)
	a.LastChild = append(a.LastChild, NoNode)
	a.TextStart = append(a.TextStart, int32(len(b.blob)))
	a.TextEnd = append(a.TextEnd, int32(len(b.blob)))
	if len(b.stack) == 0 {
		a.Parent = append(a.Parent, NoNode)
	} else {
		p := b.stack[len(b.stack)-1]
		a.Parent = append(a.Parent, p)
		if prev := a.LastChild[p]; prev != NoNode {
			a.NextSibling[prev] = id
			a.PrevSibling[id] = prev
		} else {
			a.FirstChild[p] = id
		}
		a.LastChild[p] = id
	}
	b.stack = append(b.stack, id)
	return id
}

// Close ends the currently open node.
func (b *ArenaBuilder) Close() { b.stack = b.stack[:len(b.stack)-1] }

// Depth returns the number of currently open nodes.
func (b *ArenaBuilder) Depth() int { return len(b.stack) }

// Top returns the id of the currently open node.
func (b *ArenaBuilder) Top() int32 { return b.stack[len(b.stack)-1] }

// HasChildren reports whether node id has at least one child so far.
func (b *ArenaBuilder) HasChildren(id int32) bool { return b.a.LastChild[id] != NoNode }

// OpenLabel returns the label symbol of the k-th open node from the
// top (0 = innermost). Callers use it for HTML implied-end decisions.
func (b *ArenaBuilder) OpenLabel(k int) int32 {
	return b.a.Label[b.stack[len(b.stack)-1-k]]
}

// TextNode appends a #text leaf carrying text to the open node and
// returns its id.
func (b *ArenaBuilder) TextNode(text string) int32 {
	id := b.Open("#text")
	b.AppendText(id, text)
	b.Close()
	return id
}

// toBlobTail ensures node id's text span is the blob tail, relocating
// the content to the end if later text was appended in between. (The
// most recent text node is always already at the tail.)
func (b *ArenaBuilder) toBlobTail(id int32) {
	a := &b.a
	if int(a.TextEnd[id]) != len(b.blob) {
		start := int32(len(b.blob))
		b.blob = append(b.blob, b.blob[a.TextStart[id]:a.TextEnd[id]]...)
		a.TextStart[id] = start
		a.TextEnd[id] = int32(len(b.blob))
	}
}

// AppendText appends s to node id's character data (used to restore
// boundary whitespace once the next sibling is known).
func (b *ArenaBuilder) AppendText(id int32, s string) {
	b.toBlobTail(id)
	b.blob = append(b.blob, s...)
	b.a.TextEnd[id] = int32(len(b.blob))
}

// AppendTextBytes is AppendText for a byte slice, copying straight
// into the blob without an intermediate string.
func (b *ArenaBuilder) AppendTextBytes(id int32, s []byte) {
	b.toBlobTail(id)
	b.blob = append(b.blob, s...)
	b.a.TextEnd[id] = int32(len(b.blob))
}

// SetAttrs records the attribute map of node id (nil is a no-op).
func (b *ArenaBuilder) SetAttrs(id int32, attrs map[string]string) {
	if len(attrs) == 0 {
		return
	}
	if b.a.Attrs == nil {
		b.a.Attrs = make(map[int32]map[string]string)
	}
	b.a.Attrs[id] = attrs
}

// Finish closes any still-open nodes, seals the text blob and returns
// the arena. The builder must not be reused afterwards.
func (b *ArenaBuilder) Finish() *Arena {
	// Grow's capacity is a guess: a sealed arena keeps exactly its rows,
	// so a cached document carries no slack in its columns.
	for _, s := range b.columns() {
		if cap(*s) > len(*s) {
			*s = withCap(*s, len(*s))
		}
	}
	b.stack = b.stack[:0]
	b.a.Blob = string(b.blob)
	b.blob = nil
	return &b.a
}

// FromArena returns a fully indexed Tree sharing the arena, with its
// *Node view (Root, Nodes) materialized eagerly. The arena must be
// nonempty. A mutated arena (tombstones or stable non-preorder ids)
// routes through LiveTree instead — its canonical preorder view, which
// does not share the arena.
func FromArena(a *Arena) *Tree {
	if a.Mutated() {
		return a.LiveTree()
	}
	nodes := buildView(a)
	t := &Tree{Root: nodes[0], Nodes: nodes}
	t.arena.Store(a)
	return t
}

// OfArena returns an arena-only Tree over a: Root and Nodes stay nil
// and View builds the pointer view on first use, so evaluation that
// reads only the arena columns never allocates a *Node. The arena must
// be nonempty; a mutated one routes through LiveTree as in FromArena.
func OfArena(a *Arena) *Tree {
	if a.Mutated() {
		return a.LiveTree()
	}
	t := &Tree{arenaOnly: true}
	t.arena.Store(a)
	return t
}

// buildView materializes the *Node view of a in document order. An
// unmutated arena's view comes from two slabs — one for the nodes, one
// for all child-pointer slices — so it costs O(1) allocations plus one
// private attribute map per node that has attributes. A mutated arena
// yields its canonical live view (LiveTree).
func buildView(a *Arena) []*Node {
	if a.Mutated() {
		return a.LiveTree().Nodes
	}
	n := a.Len()
	slab := make([]Node, n)
	nodes := make([]*Node, n)
	childPtrs := make([]*Node, 0, max(n-1, 0))
	// Children of v occupy a contiguous run of childPtrs because the
	// run is carved when v's subtree is entered; fill by walking each
	// node's sibling chain once (O(n) total).
	for v := 0; v < n; v++ {
		nd := &slab[v]
		nodes[v] = nd
		nd.Label = a.Syms.Name(a.Label[v])
		nd.Text = a.Text(int32(v))
		nd.ID = v
		if p := a.Parent[v]; p != NoNode {
			nd.Parent = &slab[p]
		}
		if a.FirstChild[v] != NoNode {
			start := len(childPtrs)
			for c := a.FirstChild[v]; c != NoNode; c = a.NextSibling[c] {
				slab[c].pos = len(childPtrs) - start
				childPtrs = append(childPtrs, &slab[c])
			}
			nd.Children = childPtrs[start:len(childPtrs):len(childPtrs)]
		}
	}
	for id, attrs := range a.Attrs {
		// Private copy per node: arena builders share attribute maps
		// between nodes with identical sections, but Node.Attrs has
		// always been independently mutable.
		m := make(map[string]string, len(attrs))
		for k, v := range attrs {
			m[k] = v
		}
		slab[id].Attrs = m
	}
	return nodes
}

// arenaFromNodes converts an indexed pointer tree into its arena in
// one pass over t.Nodes. Labels are interned into a fresh table.
func arenaFromNodes(t *Tree) *Arena {
	n := t.Size()
	a := &Arena{
		Syms:        NewSymbols(),
		Label:       make([]int32, n),
		Parent:      make([]int32, n),
		FirstChild:  make([]int32, n),
		NextSibling: make([]int32, n),
		PrevSibling: make([]int32, n),
		LastChild:   make([]int32, n),
		TextStart:   make([]int32, n),
		TextEnd:     make([]int32, n),
	}
	for i := range a.Parent {
		a.Parent[i], a.FirstChild[i], a.LastChild[i] = NoNode, NoNode, NoNode
		a.NextSibling[i], a.PrevSibling[i] = NoNode, NoNode
	}
	var blob []byte
	for _, nd := range t.Nodes {
		v := int32(nd.ID)
		a.Label[v] = a.Syms.Intern(nd.Label)
		if nd.Text != "" {
			a.TextStart[v] = int32(len(blob))
			blob = append(blob, nd.Text...)
			a.TextEnd[v] = int32(len(blob))
		}
		if len(nd.Children) > 0 {
			a.FirstChild[v] = int32(nd.Children[0].ID)
			a.LastChild[v] = int32(nd.Children[len(nd.Children)-1].ID)
		}
		for i, c := range nd.Children {
			cv := int32(c.ID)
			a.Parent[cv] = v
			if i > 0 {
				a.PrevSibling[cv] = int32(nd.Children[i-1].ID)
			}
			if i+1 < len(nd.Children) {
				a.NextSibling[cv] = int32(nd.Children[i+1].ID)
			}
		}
		if len(nd.Attrs) > 0 {
			if a.Attrs == nil {
				a.Attrs = make(map[int32]map[string]string)
			}
			a.Attrs[v] = nd.Attrs
		}
	}
	a.Blob = string(blob)
	return a
}

// Arena returns the struct-of-arrays representation of the tree,
// building and memoizing it on first use (trees parsed through the
// arena path carry it from the start). The arena reflects the tree at
// conversion time: call Reindex after structural modification, which
// also drops the stale arena.
//
// Concurrent callers may race to build the first arena; both builds
// are equivalent and one wins, so the method is safe for concurrent
// use on an otherwise-immutable tree.
func (t *Tree) Arena() *Arena {
	if a := t.arena.Load(); a != nil {
		return a
	}
	a := arenaFromNodes(t)
	t.arena.Store(a)
	return a
}
