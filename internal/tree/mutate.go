package tree

// This file is the live-document mutation layer of the arena: instead
// of rebuilding the whole struct-of-arrays representation on every
// edit (Reindex), an Arena accepts in-place subtree insertions and
// removals, retexting and attribute updates, each recorded in an
// ArenaDelta and stamped with a monotonically increasing generation.
//
// The representation is append-only with tombstones:
//
//   - Inserted nodes are appended at the column tails, so existing
//     node ids are stable handles across edits (they are no longer
//     globally preorder; LivePreorder recovers the document order).
//   - Removed subtrees are tombstoned, not cleared: a removed node
//     keeps its own column values, and only its *live* neighbors
//     (parent, previous and next sibling) are rewired — with their
//     pre-edit values saved in the delta, so the pre-edit structure
//     stays reconstructible for delete-rederive maintenance (see
//     eval/incremental.go).
//   - No column stores a node's position among its siblings, so a
//     splice leaves the following siblings untouched: one insert or
//     removal records at most the parent, the previous and the next
//     sibling, however long the sibling list is. The parent is
//     recorded even when its own columns keep their values, because
//     the positions of its children — its child_k facts — shift.
//
// Invariant: the navigation columns of a live node never reference a
// dead node, so any walk that starts from a live node stays within
// live nodes. Dead nodes may keep stale references to live ones.

import (
	"fmt"
	"sync/atomic"
)

// TouchedNode records the pre-edit navigation columns of one live node
// whose structure an edit batch rewired.
type TouchedNode struct {
	// ID is the touched node.
	ID int32
	// OldParent .. OldLastChild are the node's column values before
	// the first edit of the batch touched it.
	OldParent, OldFirstChild, OldNextSibling, OldPrevSibling, OldLastChild int32
}

// ArenaDelta records one batch of arena mutations: which rows were
// appended, which were tombstoned, which live rows had navigation
// columns rewired (with their old values), and which nodes had text or
// attributes replaced. Deltas are what the incremental evaluator
// consumes (the τ_ur EDB fact delta is computable from one), and they
// compose with ComposeDeltas.
type ArenaDelta struct {
	// OldLen is |dom| before the batch: ids ≥ OldLen did not exist in
	// the pre-edit arena.
	OldLen int
	// NewLen is |dom| after the batch.
	NewLen int
	// Gen is the arena generation after the batch.
	Gen uint64
	// Added lists appended node ids (all ≥ OldLen), in insertion order.
	Added []int32
	// Removed lists tombstoned node ids (whole subtrees, preorder per
	// removal).
	Removed []int32
	// Touched lists live nodes whose navigation columns were rewired,
	// with their pre-batch values (first write wins within the batch).
	Touched []TouchedNode
	// Retexted lists nodes whose character data was replaced. Text is
	// outside the τ_ur signature, so retexts never change query
	// results — they matter to extraction output and cache freshness.
	Retexted []int32
	// Reattred lists nodes whose attributes were updated (also outside
	// τ_ur).
	Reattred []int32

	touched map[int32]int // id → index in Touched
}

// NewDelta opens an empty mutation batch against the arena's current
// state. Pass it to InsertSubtree / RemoveSubtree / SetText / SetAttr.
func (a *Arena) NewDelta() *ArenaDelta {
	return &ArenaDelta{OldLen: a.Len(), NewLen: a.Len(), Gen: a.Gen()}
}

// Empty reports whether the delta records no mutations.
func (d *ArenaDelta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Touched) == 0 &&
		len(d.Retexted) == 0 && len(d.Reattred) == 0
}

// OldOf returns the pre-batch navigation columns of v if the batch
// rewired them.
func (d *ArenaDelta) OldOf(v int32) (TouchedNode, bool) {
	if d.touched == nil {
		return TouchedNode{}, false
	}
	i, ok := d.touched[v]
	if !ok {
		return TouchedNode{}, false
	}
	return d.Touched[i], true
}

// touch saves v's current columns into the delta unless the batch
// already touched v (first write wins) or v was appended by the batch
// itself (no pre-batch row to save).
func (d *ArenaDelta) touch(a *Arena, v int32) {
	if int(v) >= d.OldLen {
		return
	}
	if d.touched == nil {
		d.touched = make(map[int32]int)
	}
	if _, ok := d.touched[v]; ok {
		return
	}
	d.touched[v] = len(d.Touched)
	d.Touched = append(d.Touched, TouchedNode{
		ID:             v,
		OldParent:      a.Parent[v],
		OldFirstChild:  a.FirstChild[v],
		OldNextSibling: a.NextSibling[v],
		OldPrevSibling: a.PrevSibling[v],
		OldLastChild:   a.LastChild[v],
	})
}

// ComposeDeltas flattens a sequence of deltas (oldest first) into one
// batch-equivalent delta: OldLen from the first, NewLen/Gen from the
// last, unions of the row sets, and first-write-wins old column
// values. Composing an empty sequence returns nil.
func ComposeDeltas(ds []*ArenaDelta) *ArenaDelta {
	if len(ds) == 0 {
		return nil
	}
	if len(ds) == 1 {
		return ds[0]
	}
	out := &ArenaDelta{OldLen: ds[0].OldLen, NewLen: ds[len(ds)-1].NewLen, Gen: ds[len(ds)-1].Gen}
	for _, d := range ds {
		out.Added = append(out.Added, d.Added...)
		out.Removed = append(out.Removed, d.Removed...)
		out.Retexted = append(out.Retexted, d.Retexted...)
		out.Reattred = append(out.Reattred, d.Reattred...)
		for _, t := range d.Touched {
			if int(t.ID) >= out.OldLen {
				continue // appended earlier in the sequence: no pre-sequence row
			}
			if out.touched == nil {
				out.touched = make(map[int32]int)
			}
			if _, ok := out.touched[t.ID]; ok {
				continue
			}
			out.touched[t.ID] = len(out.Touched)
			out.Touched = append(out.Touched, t)
		}
	}
	return out
}

// Gen returns the arena's mutation generation: 0 for a freshly built
// arena, incremented by every mutation. Safe for concurrent reads.
func (a *Arena) Gen() uint64 { return atomic.LoadUint64(&a.gen) }

// Mutated reports whether the arena has ever been mutated.
func (a *Arena) Mutated() bool { return a.Gen() != 0 }

// Alive reports whether node v exists in the current document (i.e.
// was not tombstoned by RemoveSubtree).
func (a *Arena) Alive(v int32) bool { return a.dead == nil || !a.dead[v] }

// Dead exposes the tombstone column (nil when nothing was removed);
// callers must treat it as read-only.
func (a *Arena) Dead() []bool { return a.dead }

// NumDead returns the number of tombstoned rows.
func (a *Arena) NumDead() int { return a.numDead }

// NumAlive returns the number of live nodes.
func (a *Arena) NumAlive() int { return a.Len() - a.numDead }

// bump stamps the arena and the delta with the next generation.
func (a *Arena) bump(d *ArenaDelta) {
	d.Gen = atomic.AddUint64(&a.gen, 1)
	d.NewLen = a.Len()
}

// appendRow appends one fresh, unlinked row for a node with the given
// label spec and returns its id.
func (a *Arena) appendRow(d *ArenaDelta, n *Node) int32 {
	id := int32(len(a.Label))
	a.Label = append(a.Label, a.Syms.Intern(n.Label))
	a.Parent = append(a.Parent, NoNode)
	a.FirstChild = append(a.FirstChild, NoNode)
	a.NextSibling = append(a.NextSibling, NoNode)
	a.PrevSibling = append(a.PrevSibling, NoNode)
	a.LastChild = append(a.LastChild, NoNode)
	a.TextStart = append(a.TextStart, 0)
	a.TextEnd = append(a.TextEnd, 0)
	if a.dead != nil {
		a.dead = append(a.dead, false)
	}
	if n.Text != "" {
		a.setTextOver(id, n.Text)
	}
	if len(n.Attrs) > 0 {
		if a.Attrs == nil {
			a.Attrs = make(map[int32]map[string]string)
		}
		m := make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			m[k] = v
		}
		a.Attrs[id] = m
	}
	d.Added = append(d.Added, id)
	return id
}

// appendSubtree appends the subtree rooted at n in preorder, wiring
// the copy's internal links, and returns the id of its root row.
func (a *Arena) appendSubtree(d *ArenaDelta, n *Node) int32 {
	id := a.appendRow(d, n)
	prev := NoNode
	for _, c := range n.Children {
		cid := a.appendSubtree(d, c)
		a.Parent[cid] = id
		if prev == NoNode {
			a.FirstChild[id] = cid
		} else {
			a.NextSibling[prev] = cid
			a.PrevSibling[cid] = prev
		}
		a.LastChild[id] = cid
		prev = cid
	}
	return id
}

// InsertSubtree appends a copy of the subtree rooted at sub and
// splices it in as the pos-th child (0-based; clamped to the child
// count) of parent, recording the mutation in d. It returns the arena
// id of the inserted subtree's root. sub is copied — the caller keeps
// ownership of the nodes.
func (a *Arena) InsertSubtree(d *ArenaDelta, parent int32, pos int, sub *Node) (int32, error) {
	if parent < 0 || int(parent) >= a.Len() || !a.Alive(parent) {
		return NoNode, fmt.Errorf("tree: insert under nonexistent node %d", parent)
	}
	if sub == nil {
		return NoNode, fmt.Errorf("tree: insert of a nil subtree")
	}
	v := a.appendSubtree(d, sub)
	// next is the current occupant of position pos (NoNode: append),
	// found by the same O(pos) walk as ChildK.
	next := a.ChildK(parent, max(pos, 0)+1)
	prev := a.LastChild[parent]
	if next != NoNode {
		prev = a.PrevSibling[next]
	}
	d.touch(a, parent)
	a.Parent[v], a.PrevSibling[v], a.NextSibling[v] = parent, prev, next
	if prev == NoNode {
		a.FirstChild[parent] = v
	} else {
		d.touch(a, prev)
		a.NextSibling[prev] = v
	}
	if next == NoNode {
		a.LastChild[parent] = v
	} else {
		d.touch(a, next)
		a.PrevSibling[next] = v
	}
	a.bump(d)
	return v, nil
}

// RemoveSubtree tombstones the subtree rooted at v and unsplices it
// from its live neighbors, recording the mutation in d. The root
// cannot be removed. Removed rows keep their column values (the
// pre-edit structure stays walkable from them), but live nodes no
// longer reference them.
func (a *Arena) RemoveSubtree(d *ArenaDelta, v int32) error {
	if v == 0 && a.Len() > 0 {
		return fmt.Errorf("tree: cannot remove the root")
	}
	if v < 0 || int(v) >= a.Len() || !a.Alive(v) {
		return fmt.Errorf("tree: remove of nonexistent node %d", v)
	}
	p, prev, next := a.Parent[v], a.PrevSibling[v], a.NextSibling[v]
	d.touch(a, p)
	if prev != NoNode {
		d.touch(a, prev)
		a.NextSibling[prev] = next
	}
	if next != NoNode {
		d.touch(a, next)
		a.PrevSibling[next] = prev
	}
	if a.FirstChild[p] == v {
		a.FirstChild[p] = next
	}
	if a.LastChild[p] == v {
		a.LastChild[p] = prev
	}
	if a.dead == nil {
		a.dead = make([]bool, a.Len())
	}
	a.markDead(d, v)
	a.bump(d)
	return nil
}

// markDead tombstones v's subtree. Live columns reference only live
// nodes, so the walk visits exactly the live descendants.
func (a *Arena) markDead(d *ArenaDelta, v int32) {
	a.dead[v] = true
	a.numDead++
	d.Removed = append(d.Removed, v)
	for c := a.FirstChild[v]; c != NoNode; c = a.NextSibling[c] {
		a.markDead(d, c)
	}
}

// SetText replaces node v's character data, recording the retext in d.
// Text is outside τ_ur, so the edit never changes query results.
func (a *Arena) SetText(d *ArenaDelta, v int32, text string) error {
	if v < 0 || int(v) >= a.Len() || !a.Alive(v) {
		return fmt.Errorf("tree: settext of nonexistent node %d", v)
	}
	a.setTextOver(v, text)
	d.Retexted = append(d.Retexted, v)
	a.bump(d)
	return nil
}

// AppendText appends suffix to node v's character data — a SetText of
// the concatenation, so the same retext bookkeeping applies.
func (a *Arena) AppendText(d *ArenaDelta, v int32, suffix string) error {
	if v < 0 || int(v) >= a.Len() || !a.Alive(v) {
		return fmt.Errorf("tree: appendtext of nonexistent node %d", v)
	}
	return a.SetText(d, v, a.Text(v)+suffix)
}

func (a *Arena) setTextOver(v int32, text string) {
	if a.textOver == nil {
		a.textOver = make(map[int32]string)
	}
	a.textOver[v] = text
}

// SetAttr sets one attribute of node v, recording the update in d.
// Attributes are outside τ_ur, so the edit never changes query
// results. The node's attribute map is copied on first write — arena
// builders share maps between nodes with identical attribute sets.
func (a *Arena) SetAttr(d *ArenaDelta, v int32, key, val string) error {
	if v < 0 || int(v) >= a.Len() || !a.Alive(v) {
		return fmt.Errorf("tree: setattr of nonexistent node %d", v)
	}
	if a.Attrs == nil {
		a.Attrs = make(map[int32]map[string]string)
	}
	m := make(map[string]string, len(a.Attrs[v])+1)
	for k, x := range a.Attrs[v] {
		m[k] = x
	}
	m[key] = val
	a.Attrs[v] = m
	d.Reattred = append(d.Reattred, v)
	a.bump(d)
	return nil
}

// LivePreorder enumerates the live nodes in document (preorder) order.
// Position i of the result is the document-order index the arena id
// LivePreorder()[i] would receive in a from-scratch rebuild — the
// bridge between stable arena ids and canonical preorder ids.
func (a *Arena) LivePreorder() []int32 {
	out := make([]int32, 0, a.NumAlive())
	if a.Len() == 0 || !a.Alive(0) {
		return out
	}
	v := int32(0)
	for v != NoNode {
		out = append(out, v)
		if fc := a.FirstChild[v]; fc != NoNode {
			v = fc
			continue
		}
		for v != NoNode && a.NextSibling[v] == NoNode {
			v = a.Parent[v]
		}
		if v != NoNode {
			v = a.NextSibling[v]
		}
	}
	return out
}

// LiveTree materializes the live nodes as a fresh, canonically
// preorder-indexed pointer tree — the document a from-scratch reparse
// of the current content would produce. The result does not share the
// arena (its ids are dense preorder ids, not arena handles).
func (a *Arena) LiveTree() *Tree {
	if a.Len() == 0 {
		return nil
	}
	var build func(v int32) *Node
	build = func(v int32) *Node {
		n := &Node{Label: a.LabelName(v), Text: a.Text(v)}
		if attrs := a.Attrs[v]; len(attrs) > 0 {
			n.Attrs = make(map[string]string, len(attrs))
			for k, x := range attrs {
				n.Attrs[k] = x
			}
		}
		for c := a.FirstChild[v]; c != NoNode; c = a.NextSibling[c] {
			n.Add(build(c))
		}
		return n
	}
	return NewTree(build(0))
}
