package mdlog

// Live documents. A Document wraps a parsed tree whose arena may be
// mutated in place (InsertSubtree / RemoveSubtree / SetText /
// SetAttr), records every edit as a tree.ArenaDelta window, and feeds
// those windows to per-plan incremental maintainers
// (eval.IncState, DESIGN.md § Incremental maintenance). A compiled
// query — or a whole QuerySet — run through RunIncremental pays per
// edit for the delta-rule maintenance of its model instead of
// re-evaluating the document from scratch. Plans outside the
// maintainable fragment (the MSO automaton, the direct XPath and
// Elog⁻Δ evaluators) run from scratch on the document's own tree,
// whose arena they read in live preorder, memoized per generation.
// Every plan answers in arena ids, so results are engine-independent.
//
// All edits to a Document's tree MUST go through the Document: it
// serializes mutation against evaluation and keeps the delta log that
// the maintainers replay. Mutating the underlying tree directly
// leaves the maintainers behind the arena, which they detect and
// report as an error rather than serving stale results.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdlog/internal/eval"
	"mdlog/internal/tree"
)

// Document is a live, editable document: a tree plus the edit log and
// per-query incremental evaluation state that keep compiled queries'
// results maintained under mutation. Build one with NewDocument; edit
// through the mutation methods; query through
// CompiledQuery.RunIncremental or QuerySet.RunIncremental. All methods
// are safe for concurrent use (one mutex serializes edits and
// incremental runs — concurrent editors and readers interleave at
// whole-operation granularity).
type Document struct {
	mu    sync.Mutex
	t     *Tree
	arena *tree.Arena

	// log holds the not-yet-universally-applied edit windows, one per
	// mutation call; total counts windows ever appended and dropped
	// counts windows pruned off the front once every maintainer has
	// consumed them, so state.applied - dropped indexes into log. rows
	// counts the arena rows the appended windows touched.
	log     []*tree.ArenaDelta
	total   int
	dropped int
	rows    int

	// retired keeps the counters of maintainers pruneLocked dropped,
	// so Stats never runs backwards.
	retired eval.IncStats

	// states maps a plan identity (CompiledQuery.memoKey or
	// QuerySet.fusedKey) to its incremental maintainer.
	states map[any]*docState

	edits int64
}

// docState is one plan's maintainer plus how many of the document's
// edit windows (and their touched rows) it has consumed.
type docState struct {
	inc     *eval.IncState
	applied int
	rows    int
}

// NewDocument makes t editable. The tree is adopted, not copied:
// after this call all edits must go through the returned Document.
func NewDocument(t *Tree) *Document {
	return &Document{
		t:      t,
		arena:  t.Arena(),
		states: map[any]*docState{},
	}
}

// Tree returns the underlying tree. Reading it concurrently with
// edits is racy; use Snapshot for a stable view of a live document.
func (d *Document) Tree() *Tree { return d.t }

// Generation returns the document's mutation counter; it advances on
// every edit, and all caches key on it.
func (d *Document) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.t.Generation()
}

// NumNodes returns the number of arena rows (live and dead — removal
// marks rows dead in place; insertion appends).
func (d *Document) NumNodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arena.Len()
}

// NumAlive returns the number of live nodes.
func (d *Document) NumAlive() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arena.NumAlive()
}

// LiveNodes returns the arena ids of the live nodes in document
// (preorder) order — the id space incremental query results use.
func (d *Document) LiveNodes() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pre := d.arena.LivePreorder()
	out := make([]int, len(pre))
	for i, v := range pre {
		out[i] = int(v)
	}
	return out
}

// Snapshot returns the canonical live tree: the document as an
// immutable Tree with document-order (preorder) ids, numbered as a
// re-parse of its current content would number them. Before any edit
// this is the document's own tree (arena ids already canonical).
// After edits each call builds a fresh copy, whose ids differ from the
// arena ids live queries return; LiveNodes maps between the two.
func (d *Document) Snapshot() *Tree {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.arena.Mutated() {
		return d.t
	}
	return d.arena.LiveTree()
}

// edit runs one mutation under the lock and appends its delta window
// to the log.
func (d *Document) edit(f func(*tree.ArenaDelta) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	del := d.arena.NewDelta()
	if err := f(del); err != nil {
		return err
	}
	d.log = append(d.log, del)
	d.total++
	d.rows += windowRows(del)
	d.edits++
	// With no maintainers (or all caught up elsewhere) the window is
	// dropped immediately; otherwise it lives until every maintainer
	// has consumed it.
	d.pruneLocked()
	return nil
}

func (d *Document) checkNode(v int) error {
	if v < 0 || v >= d.arena.Len() || !d.arena.Alive(int32(v)) {
		return fmt.Errorf("mdlog: node %d is not a live node of the document", v)
	}
	return nil
}

// InsertSubtree inserts sub (a hand-built or parsed node, adopted
// whole) as the pos-th child of parent (clamped to the child count)
// and returns the arena id of the subtree root.
func (d *Document) InsertSubtree(parent, pos int, sub *Node) (int, error) {
	root := -1
	err := d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(parent); err != nil {
			return err
		}
		r, err := d.arena.InsertSubtree(del, int32(parent), pos, sub)
		root = int(r)
		return err
	})
	if err != nil {
		return -1, err
	}
	return root, nil
}

// RemoveSubtree removes the subtree rooted at v (the root itself
// cannot be removed).
func (d *Document) RemoveSubtree(v int) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.RemoveSubtree(del, int32(v))
	})
}

// SetText replaces v's text content. Text is outside the τ_ur
// signature, so query results never change — the edit only advances
// the generation.
func (d *Document) SetText(v int, text string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.SetText(del, int32(v), text)
	})
}

// AppendText appends suffix to v's text content (a convenience
// SetText of the concatenation — common for live logs and streaming
// ingestion). Like SetText, only the generation advances; spanner
// queries observe the new text on their next run.
func (d *Document) AppendText(v int, suffix string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.AppendText(del, int32(v), suffix)
	})
}

// SetAttr sets attribute key on v. Like text, attributes are outside
// the τ_ur signature.
func (d *Document) SetAttr(v int, key, value string) error {
	return d.edit(func(del *tree.ArenaDelta) error {
		if err := d.checkNode(v); err != nil {
			return err
		}
		return d.arena.SetAttr(del, int32(v), key, value)
	})
}

// DocumentStats is a point-in-time snapshot of a Document's state and
// maintenance counters.
type DocumentStats struct {
	// Generation is the mutation counter.
	Generation uint64
	// Nodes counts arena rows (live + dead); Live counts live nodes.
	Nodes, Live int
	// Edits counts mutation calls.
	Edits int64
	// PendingWindows is the length of the edit log not yet consumed by
	// every maintainer; MaintainedPlans is the number of per-plan
	// incremental states the document holds.
	PendingWindows, MaintainedPlans int
	// Inc aggregates the maintainers' counters (delta applies,
	// full-re-evaluation fallbacks, facts overdeleted / rederived).
	Inc eval.IncStats
}

// Stats snapshots the document's mutation and maintenance counters.
func (d *Document) Stats() DocumentStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ds := DocumentStats{
		Generation:      d.t.Generation(),
		Nodes:           d.arena.Len(),
		Live:            d.arena.NumAlive(),
		Edits:           d.edits,
		PendingWindows:  len(d.log),
		MaintainedPlans: len(d.states),
		Inc:             d.retired,
	}
	for _, st := range d.states {
		addIncStats(&ds.Inc, st.inc.Stats())
	}
	return ds
}

func addIncStats(dst *eval.IncStats, is eval.IncStats) {
	dst.Applies += is.Applies
	dst.Fallbacks += is.Fallbacks
	dst.Overdeleted += is.Overdeleted
	dst.Rederived += is.Rederived
}

// incRunLocked returns plan's maintained, projected model under the
// plan identity key, creating the maintainer on first use and catching
// it up on the pending edit windows otherwise. Caller holds d.mu.
func (d *Document) incRunLocked(ctx context.Context, key any, plan *groundingPlan) (*Database, Stats, error) {
	rs := Stats{Engine: plan.engineName()}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	start := time.Now()
	st := d.states[key]
	if st == nil {
		st = &docState{inc: plan.NewIncState(d.arena), applied: d.total, rows: d.rows}
		d.states[key] = st
	} else if pending := d.log[st.applied-d.dropped:]; len(pending) > 0 {
		if err := st.inc.Apply(tree.ComposeDeltas(pending)); err != nil {
			return nil, rs, err
		}
		st.applied, st.rows = d.total, d.rows
	}
	db, err := st.inc.Database(plan.project)
	if err != nil {
		return nil, rs, err
	}
	rs.Eval = time.Since(start)
	d.pruneLocked()
	return db, rs, nil
}

// pruneLocked drops edit windows every maintainer has consumed. A
// maintainer whose unconsumed windows touch more rows than the arena
// holds is dropped first: replaying them would cost more than the
// rebuild incRunLocked does on its next use, and a plan that never
// runs again (a QuerySet a registry change replaced) would otherwise
// pin the log forever. The log thus never outgrows the arena.
func (d *Document) pruneLocked() {
	min := d.total
	for key, st := range d.states {
		if d.rows-st.rows > d.arena.Len() {
			addIncStats(&d.retired, st.inc.Stats())
			delete(d.states, key)
			continue
		}
		if st.applied < min {
			min = st.applied
		}
	}
	if drop := min - d.dropped; drop > 0 {
		d.log = append([]*tree.ArenaDelta(nil), d.log[drop:]...)
		d.dropped = min
	}
}

// windowRows is the number of arena rows one edit window touched, at
// least one, so that no-op windows still count against the log.
func windowRows(del *tree.ArenaDelta) int {
	return max(1, len(del.Added)+len(del.Removed)+len(del.Touched)+len(del.Retexted)+len(del.Reattred))
}

// runIncrementalIn evaluates q against the live document. Grounding
// plans (linear, bitmap) are delta-maintained via the document's
// per-plan IncState; every other plan runs from scratch on the
// document's own tree, whose arena it reads in live preorder, with
// results memoized in cache under the generation-aware key. Both
// answer in arena ids. Caller holds d.mu.
func (q *CompiledQuery) runIncrementalIn(ctx context.Context, d *Document, cache *TreeCache) (*Database, Stats, error) {
	// A spanner's node part is an ordinary grounding plan, maintained
	// like one (span enumeration happens on top, per call).
	if g := groundingOf(q.plan); g != nil {
		return d.incRunLocked(ctx, q.memoKey, g)
	}
	return runCached(ctx, d.t, cache, q.plan, q.memoKey)
}

// RunIncremental is Run against a live document: the query's model
// is maintained incrementally under the document's edits (DESIGN.md §
// Incremental maintenance), so an edit re-derives only what the edit
// touched, and a spanner's automata read the arena's current text —
// including SetText/AppendText edits. Returned ids are arena ids —
// stable across edits, not necessarily document order after mutations
// (see Document.Snapshot for canonical ids).
func (q *CompiledQuery) RunIncremental(ctx context.Context, d *Document) SetResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	db, rs, err := q.runIncrementalIn(ctx, d, q.cache)
	return q.result(arenaSource{a: d.arena}, db, rs, err)
}

// RunIncremental is Run against a live document: the fused pass
// maintains ONE incremental state for the whole member union (split
// per member as in Run), and unfused members are maintained or run
// from scratch individually. Result ids are arena ids; everything
// else matches Run, including per-member error isolation and stats
// attribution.
func (s *QuerySet) RunIncremental(ctx context.Context, d *Document) []SetResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return s.runMembers(arenaSource{a: d.arena},
		func() (*Database, Stats, error) { return d.incRunLocked(ctx, s.fusedKey, s.fusedPlan) },
		func(q *CompiledQuery, cache *TreeCache) (*Database, Stats, error) {
			return q.runIncrementalIn(ctx, d, cache)
		})
}
