package eval

// Incremental maintenance of the least model under live-document
// edits. An arena mutation (tree.InsertSubtree / RemoveSubtree)
// changes the τ_ur EDB in a precisely bounded way: every added,
// removed, or relinked row is named by the recorded ArenaDelta, and
// every τ_ur fact that appears or disappears has some argument whose
// row changed — firstchild, nextsibling, lastchild are stored per-row,
// the node-class predicates (root, leaf, lastsibling, firstsibling)
// read only a node's own row, and a splice that shifts the positions
// of following siblings changes child_k facts whose first argument is
// the parent, which every splice records. (So the delta stays O(1)
// rows per splice: no sibling is renumbered.) Text and attribute edits
// are invisible here: they are outside the τ_ur signature, so no fact
// changes.
//
// IncState exploits that bound with delete-rederive (DRed) on top of
// the bitmap engine's semi-naive machinery:
//
//  1. Overdelete, entirely under the OLD structure: walk from every
//     affected row backwards to the unique candidate anchor of each
//     rule slot (the spanning-tree steps are injective partial
//     functions, Proposition 4.1 — so the walk is exact, not a
//     search), check the rule body under the old edges and the
//     pre-edit extensions, and delete every head fact with a
//     derivation that may have used a changed fact. Deletions
//     propagate through rule bodies by the same inverse walk until
//     the worklist drains. This over-approximates: a fact with an
//     independent surviving derivation is deleted too —
//  2. Rederive, under the NEW structure: seed the bitmap engine's
//     semi-naive loop (bitmapRun.fixpoint) with every candidate
//     anchor reachable from an affected or overdeleted node and let
//     the ordinary delta rounds run to fixpoint. A new derivation
//     must use a changed EDB fact or a rederived IDB fact, and both
//     kinds of node are in the seed frontier, so the loop reaches
//     exactly the least model of the new document — the same T_P^ω a
//     from-scratch evaluation computes (DESIGN.md § Incremental
//     maintenance gives the argument in full).
//
// Programs whose connected-rule split introduced propositional helper
// predicates fall back to full re-evaluation per generation: a helper
// flip can enable or disable rule instances at every node at once, so
// there is no local frontier to seed from. The fallback is still
// generation-correct — only the delta-locality optimization is lost.

import (
	"fmt"

	"mdlog/internal/bitset"
	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// IncState maintains the intensional relations of one program over one
// live document across arena mutations. It is built at some generation
// by a full evaluation, then advanced by Apply with the ArenaDelta of
// each edit batch; Database returns the current least model without
// re-running the program over the whole document.
//
// An IncState is single-writer: Apply and Database must be serialized
// by the caller (the mdlog.Document wrapper provides that), matching
// the arena's own mutation contract.
type IncState struct {
	bp    *BitmapPlan
	arena *tree.Arena
	gen   uint64
	dom   int

	// fallback marks programs outside the delta-maintainable fragment
	// (their connected-rule split has propositional helpers); Database
	// then re-runs the full engine per generation — never stale, just
	// not delta-local.
	fallback bool

	// unary[pid] is the maintained extension of each unary IDB
	// predicate at generation gen.
	unary []*bitset.Set

	// slotPaths[ri][slot] walks from a rule slot back to its anchor,
	// inverting each spanning-tree step (empty at the anchor itself) —
	// the frontier → candidate-anchor map of both DRed passes.
	slotPaths [][][]invStep

	// run is the persistent scratch state the rederivation fixpoint
	// executes in; its unary slice aliases the maintained extensions.
	run *bitmapRun
	// ids is Database's scratch list of one extension's node ids.
	ids []int

	stats IncStats
}

// IncStats counts the work an IncState has done, for diagnostics and
// the service layer's session stats.
type IncStats struct {
	// Applies counts non-empty deltas applied; Fallbacks counts the
	// applies handled by the full-re-evaluation fallback.
	Applies, Fallbacks int
	// Overdeleted and Rederived count facts removed by DRed pass 1 and
	// facts among them restored by pass 2.
	Overdeleted, Rederived int
}

// incFact is one (predicate, node) pair on the overdelete worklist.
type incFact struct{ pid, v int }

// NewIncState builds incremental maintenance state for the plan over
// the document behind a, at the arena's current generation, by one
// full evaluation. Both grounding engines (linear and bitmap) compute
// the same least model, so one IncState serves queries compiled for
// either.
func (pl *Plan) NewIncState(a *tree.Arena) *IncState {
	return newIncState(bitmapOf(pl), a)
}

// NewIncState is Plan.NewIncState for an already-prepared bitmap plan.
func (bp *BitmapPlan) NewIncState(a *tree.Arena) *IncState {
	return newIncState(bp, a)
}

func newIncState(bp *BitmapPlan, a *tree.Arena) *IncState {
	s := &IncState{bp: bp, arena: a, gen: a.Gen(), dom: a.Len()}
	pl := bp.pl
	if len(pl.propPreds) > 0 {
		s.fallback = true
		return s
	}
	// With no propositional predicates every rule is anchored at its
	// head variable (nvars ≥ 1) and has no propositional body atoms.
	s.slotPaths = make([][][]invStep, len(bp.rules))
	for ri := range bp.rules {
		lr := bp.rules[ri].lr
		boundBy := make([]int, lr.nvars)
		for i := range boundBy {
			boundBy[i] = -1
		}
		for si, st := range lr.steps {
			if st.forward {
				boundBy[st.edge.y] = si
			} else {
				boundBy[st.edge.x] = si
			}
		}
		paths := make([][]invStep, lr.nvars)
		for slot := 0; slot < lr.nvars; slot++ {
			var path []invStep
			for v := slot; v != lr.anchor; {
				st := lr.steps[boundBy[v]]
				path = append(path, invStep{edge: st.edge, forward: st.forward})
				if st.forward {
					v = st.edge.x
				} else {
					v = st.edge.y
				}
			}
			paths[slot] = path
		}
		s.slotPaths[ri] = paths
	}
	s.unary = make([]*bitset.Set, len(pl.unaryPreds))
	for i := range s.unary {
		s.unary[i] = bitset.New(s.dom)
	}
	// Full initial evaluation, retaining the extension bitmaps.
	s.freshRun().evalAll()
	return s
}

// Gen returns the arena generation the maintained extensions are
// current for.
func (s *IncState) Gen() uint64 { return s.gen }

// Fallback reports whether the program is maintained by full
// re-evaluation per generation rather than delta propagation.
func (s *IncState) Fallback() bool { return s.fallback }

// Stats returns the cumulative maintenance counters.
func (s *IncState) Stats() IncStats { return s.stats }

// freshRun readies the persistent scratch run state for the arena's
// current width: grows the maintained extensions and the pipeline
// bitmap, empties the delta lists, re-resolves labels, and invalidates
// the per-document condition bitmaps (the previous generation's are
// stale).
func (s *IncState) freshRun() *bitmapRun {
	bp := s.bp
	pl := bp.pl
	dom := s.arena.Len()
	nav := NavOf(s.arena)
	st := s.run
	if st == nil {
		st = &bitmapRun{
			bp:        bp,
			delta:     make([][]int32, len(pl.unaryPreds)),
			nextDelta: make([][]int32, len(pl.unaryPreds)),
			props:     make([]bool, len(pl.propPreds)),
			labelBm:   make([]*bitset.Set, len(pl.labels)),
			live:      bitset.New(dom),
			cols:      make([][]int32, bp.maxVars),
			binding:   make([]int, bp.maxVars),
			ruleStamp: make([]int, len(bp.rules)),
		}
		if len(pl.labels) > 0 {
			st.labelSyms = make([]int32, len(pl.labels))
		}
		s.run = st
	}
	st.nav, st.dom = nav, dom
	st.unary = s.unary
	for i := range s.unary {
		s.unary[i].Grow(dom)
	}
	st.live.Grow(dom)
	for i, c := range st.cols {
		if c != nil && len(c) < dom {
			st.cols[i] = nil
		}
	}
	for i := range st.labelBm {
		st.labelBm[i] = nil
	}
	for i := range st.kindBm {
		st.kindBm[i] = nil
	}
	st.deadBm = nil
	for i, l := range pl.labels {
		st.labelSyms[i] = nav.LabelID(l)
	}
	st.reset()
	return st
}

// Apply advances the maintained extensions across one delta window
// (one edit or a ComposeDeltas batch). The window must start exactly
// where the state left off; mdlog.Document tracks that bookkeeping.
func (s *IncState) Apply(d *tree.ArenaDelta) error {
	if d == nil || (d.Empty() && d.Gen <= s.gen) {
		return nil
	}
	if d.OldLen != s.dom {
		return fmt.Errorf("eval: delta window [%d → %d] does not start at the maintained domain %d", d.OldLen, d.NewLen, s.dom)
	}
	if s.fallback {
		s.stats.Applies++
		s.stats.Fallbacks++
		s.dom, s.gen = d.NewLen, d.Gen
		return nil
	}
	if len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Touched) == 0 {
		// Text/attr-only window: outside the τ_ur signature, no EDB
		// fact changed, so the model is untouched.
		s.dom, s.gen = d.NewLen, d.Gen
		return nil
	}
	s.stats.Applies++
	bp := s.bp

	// Ready the scratch state first: it grows the maintained bitmaps to
	// the new width (overdelete only touches old ids; rederive needs
	// the full width) and re-resolves the label symbols.
	st := s.freshRun()
	nav := st.nav
	o := newOldView(nav, d)

	// --- DRed pass 1: overdelete under the OLD structure. -----------
	// Affected old rows: every row that changed or disappeared. Every
	// EDB fact that changed has all its argument nodes among them.
	affOld := make(map[int]struct{}, len(d.Touched)+len(d.Removed))
	for _, tn := range d.Touched {
		affOld[int(tn.ID)] = struct{}{}
	}
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			affOld[int(v)] = struct{}{}
		}
	}
	od := make([]*bitset.Set, len(s.unary))
	var queue []incFact
	overdelete := func(pid, v int) {
		if od[pid] == nil {
			od[pid] = bitset.New(st.dom)
		} else if od[pid].Has(v) {
			return
		}
		od[pid].Add(v)
		queue = append(queue, incFact{pid, v})
	}
	// A derivation that used a changed fact binds an affected node at
	// some slot; the inverse walk from that slot names its anchor.
	tryOld := func(ri int, path []invStep, u int) {
		lr := bp.rules[ri].lr
		w := o.walkInv(path, u)
		if w < 0 || !o.exists(w) {
			return
		}
		if !s.unary[lr.headID].Has(w) || (od[lr.headID] != nil && od[lr.headID].Has(w)) {
			return
		}
		if s.oldBody(o, lr, st, w) {
			overdelete(lr.headID, w)
		}
	}
	for ri := range bp.rules {
		for _, path := range s.slotPaths[ri] {
			for u := range affOld {
				tryOld(ri, path, u)
			}
		}
	}
	for len(queue) > 0 {
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ri := range bp.unaryDeps[f.pid] {
			br := &bp.rules[ri]
			for ai, u := range br.lr.idbUnary {
				if u.pid == f.pid {
					tryOld(ri, br.invPaths[ai], f.v)
				}
			}
		}
	}
	// Subtract the overdeletions; removed rows lose all facts outright
	// (their every derivation was anchored at a now-dead node, so they
	// are all in od already — this is the cheap belt over suspenders).
	overdeleted := 0
	for pid, b := range od {
		if b != nil && b.Any() {
			overdeleted += b.Count()
			s.unary[pid].AndNot(b)
		}
	}
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			for _, u := range s.unary {
				u.Remove(int(v))
			}
		}
	}
	s.stats.Overdeleted += overdeleted

	// --- DRed pass 2: rederive under the NEW structure. -------------
	// Seed frontier: affected rows (old and new) plus everything
	// overdeleted. A new derivation uses a changed EDB fact (its node
	// is affected) or a rederived IDB fact (reached by the semi-naive
	// rounds); an overdeleted fact with a surviving derivation is
	// rediscovered from its own anchor seed.
	affNew := affOld
	for _, v := range d.Added {
		affNew[int(v)] = struct{}{}
	}
	for _, v := range d.Removed {
		affNew[int(v)] = struct{}{}
	}
	for _, b := range od {
		if b != nil {
			b.ForEach(func(v int) { affNew[v] = struct{}{} })
		}
	}
	for ri := range bp.rules {
		lr := bp.rules[ri].lr
		head := st.unary[lr.headID]
		for _, path := range s.slotPaths[ri] {
			for u := range affNew {
				v := u
				ok := true
				for _, is := range path {
					if is.forward {
						v = is.edge.backward(nav, v)
					} else {
						v = is.edge.forward(nav, v)
					}
					if v < 0 {
						ok = false
						break
					}
				}
				if !ok || !nav.Alive(v) || head.Has(v) {
					continue
				}
				if st.evalAnchor(lr, v) {
					st.derive(lr.headID, v)
				}
			}
		}
	}
	st.fixpoint()

	rederived := 0
	for pid, b := range od {
		if b != nil {
			b.ForEach(func(v int) {
				if s.unary[pid].Has(v) {
					rederived++
				}
			})
		}
	}
	s.stats.Rederived += rederived
	s.dom, s.gen = d.NewLen, d.Gen
	return nil
}

// Database returns the named intensional relations (those the program
// defines) at the arena's current generation — copied straight from
// the maintained extensions, or projected from a full run in fallback
// mode. It errors when Apply has not caught up with the arena (the
// caller skipped a delta).
func (s *IncState) Database(preds []string) (*datalog.Database, error) {
	if g := s.arena.Gen(); g != s.gen {
		return nil, fmt.Errorf("eval: incremental state at generation %d is behind the arena (generation %d); apply the missing deltas first", s.gen, g)
	}
	if s.fallback {
		return s.bp.Run(NavOf(s.arena), preds)
	}
	out := datalog.NewDatabase(s.dom)
	for _, pred := range preds {
		if pi, ok := s.bp.pl.unaryID[pred]; ok && out.RelOrNil(pred) == nil {
			s.ids = s.unary[pi].AppendBits(s.ids[:0])
			out.Rel(pred, 1).AddUnarySet(s.ids)
		}
	}
	return out, nil
}

// oldView reconstructs the pre-edit structure of one delta window on
// top of the post-edit arena columns: dead rows keep their pre-removal
// columns verbatim, and every surviving row whose columns changed has
// its old row snapshotted in the delta (first write wins, so composed
// windows see the values from before the whole window).
type oldView struct {
	nav     *Nav
	old     map[int32]tree.TouchedNode
	oldLen  int
	removed map[int32]bool
}

func newOldView(nav *Nav, d *tree.ArenaDelta) *oldView {
	o := &oldView{
		nav:     nav,
		oldLen:  d.OldLen,
		old:     make(map[int32]tree.TouchedNode, len(d.Touched)),
		removed: make(map[int32]bool, len(d.Removed)),
	}
	for _, tn := range d.Touched {
		o.old[tn.ID] = tn
	}
	for _, v := range d.Removed {
		if int(v) < d.OldLen {
			o.removed[v] = true
		}
	}
	return o
}

// exists reports whether v was a live node before the window: inside
// the old width and either still alive or removed by this window.
// (Rows dead before the window are not in removed, so they stay dead.)
func (o *oldView) exists(v int) bool {
	return v >= 0 && v < o.oldLen && (o.nav.Alive(v) || o.removed[int32(v)])
}

func (o *oldView) parent(v int) int {
	if t, ok := o.old[int32(v)]; ok {
		return int(t.OldParent)
	}
	return int(o.nav.Parent[v])
}

func (o *oldView) fc(v int) int {
	if t, ok := o.old[int32(v)]; ok {
		return int(t.OldFirstChild)
	}
	return int(o.nav.FC[v])
}

func (o *oldView) ns(v int) int {
	if t, ok := o.old[int32(v)]; ok {
		return int(t.OldNextSibling)
	}
	return int(o.nav.NS[v])
}

func (o *oldView) prev(v int) int {
	if t, ok := o.old[int32(v)]; ok {
		return int(t.OldPrevSibling)
	}
	return int(o.nav.Prev[v])
}

func (o *oldView) lastChild(v int) int {
	if t, ok := o.old[int32(v)]; ok {
		return int(t.OldLastChild)
	}
	return int(o.nav.LastChild[v])
}

// edgeForward is binEdge.forward under the old structure.
func (o *oldView) edgeForward(e binEdge, v int) int {
	switch e.kind {
	case binFirstChild:
		return o.fc(v)
	case binNextSibling:
		return o.ns(v)
	case binLastChild:
		return o.lastChild(v)
	case binChildK:
		if e.k < 1 {
			return -1
		}
		c := o.fc(v)
		for i := 1; i < e.k && c >= 0; i++ {
			c = o.ns(c)
		}
		return c
	}
	return -1
}

// edgeBackward is binEdge.backward under the old structure.
func (o *oldView) edgeBackward(e binEdge, v int) int {
	switch e.kind {
	case binFirstChild:
		if o.prev(v) == -1 {
			return o.parent(v)
		}
	case binNextSibling:
		return o.prev(v)
	case binLastChild:
		if o.ns(v) == -1 {
			return o.parent(v)
		}
	case binChildK:
		c, k := v, e.k
		for ; k > 1 && c != -1; k-- {
			c = o.prev(c)
		}
		if k == 1 && c != -1 && o.prev(c) == -1 {
			return o.parent(v)
		}
	}
	return -1
}

// walkInv follows an inverse spanning-tree path under the old
// structure, returning the candidate anchor or -1.
func (o *oldView) walkInv(path []invStep, v int) int {
	for _, is := range path {
		if is.forward {
			v = o.edgeBackward(is.edge, v)
		} else {
			v = o.edgeForward(is.edge, v)
		}
		if v < 0 {
			return -1
		}
	}
	return v
}

// oldBody checks a full rule body at one anchor under the old
// structure and the pre-deletion extensions — the overdelete mirror of
// bitmapRun.evalAnchor. (Propositional atoms cannot occur: programs
// with them take the fallback path.)
func (s *IncState) oldBody(o *oldView, lr *linearRule, st *bitmapRun, anchorVal int) bool {
	binding := st.binding
	binding[lr.anchor] = anchorVal
	for _, ps := range lr.steps {
		if ps.forward {
			w := o.edgeForward(ps.edge, binding[ps.edge.x])
			if w == -1 {
				return false
			}
			binding[ps.edge.y] = w
		} else {
			w := o.edgeBackward(ps.edge, binding[ps.edge.y])
			if w == -1 {
				return false
			}
			binding[ps.edge.x] = w
		}
	}
	for _, e := range lr.checks {
		if o.edgeForward(e, binding[e.x]) != binding[e.y] {
			return false
		}
	}
	for _, u := range lr.unary {
		w := binding[u.v]
		holds := false
		switch u.kind {
		case uLabel:
			holds = o.nav.Label[w] == st.labelSyms[u.labelIdx]
		case uRoot:
			holds = o.parent(w) == -1
		case uLeaf:
			holds = o.fc(w) == -1
		case uLastSibling:
			holds = o.ns(w) == -1 && o.parent(w) != -1
		case uFirstSibling:
			holds = o.prev(w) == -1 && o.parent(w) != -1
		case uDom:
			holds = true
		}
		if !holds {
			return false
		}
	}
	for _, u := range lr.idbUnary {
		if !s.unary[u.pid].Has(binding[u.v]) {
			return false
		}
	}
	return true
}
