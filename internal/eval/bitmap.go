package eval

// The bitmap engine: monadic datalog as bulk bitset algebra over the
// arena columns. A monadic predicate over a document of n nodes is a
// subset of {0..n-1}, so instead of grounding every rule into
// propositional Horn clauses and propagating facts node-at-a-time
// (plan.go), this engine evaluates each connected rule as a short
// pipeline of word-parallel bitmap kernels:
//
//   - the anchor variable's conditions seed a "live" bitmap (label
//     tests become per-symbol bitmaps, built once per run and shared
//     across rules);
//   - each τ_ur body atom (firstchild, nextsibling, lastchild,
//     child_k — all injective partial functions, Proposition 4.1)
//     becomes a column gather: for every live anchor, the bound
//     variable's node id is read straight out of the arena column and
//     anchors whose binding is undefined drop out of the word;
//   - conditions on non-anchor variables filter the live words through
//     the gathered columns; non-spanning-tree atoms are verified the
//     same way;
//   - the surviving live bitmap IS the head predicate's new extension
//     (compileLinear anchors unary-headed rules at the head variable),
//     OR-ed in by bitset.Set.OrAppend, whose word sweep also lists the
//     genuinely new node ids — the semi-naive delta.
//
// Recursion runs semi-naive on those delta id lists: a fact derived in
// round k can only enable rule bodies whose IDB atom binds to it, and
// since every binary step is an injective partial function, the unique
// candidate anchor is recovered by walking the rule's spanning-tree
// path backwards from the delta node (invPaths). Dense deltas fall
// back to re-running the whole columnar pipeline. A round touches only
// its deltas — no per-round scan of the domain — so on a sibling chain,
// where descendant recursion needs Θ(|dom|) rounds of one node each,
// the run stays linear; the engine computes the same least model T_P^ω
// as the Theorem 4.2 engine — see DESIGN.md § engine comparison for
// the soundness and complexity arguments.

import (
	"math/bits"
	"sync"

	"mdlog/internal/bitset"
	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// BitmapPlan is a monadic datalog program prepared once for the
// bitmap engine and runnable against any number of documents. It
// reuses the Theorem 4.2 grounding plans (connected splitting, anchor
// selection, spanning-tree steps) and adds the per-rule analyses the
// bitmap kernels need: conditions grouped by variable slot and the
// inverse step paths for semi-naive delta propagation.
//
// A BitmapPlan is immutable after NewBitmapPlan and safe for
// concurrent use by multiple goroutines.
type BitmapPlan struct {
	pl      *Plan
	rules   []bitmapRule
	maxVars int
	// unaryDeps[pid] / propDeps[pid] list the rules whose bodies read
	// the predicate — the semi-naive wake-up lists.
	unaryDeps [][]int
	propDeps  [][]int

	// pool recycles per-run state between Run calls: a state sized for
	// the same domain keeps its allocations, while its per-document
	// condition bitmaps and symbol table are rebuilt for every run.
	pool sync.Pool
}

// bitmapRule is one connected rule with its conditions regrouped for
// columnar evaluation.
type bitmapRule struct {
	lr *linearRule
	// slotConds / slotIDB group the rule's unary EDB checks and unary
	// IDB atoms by the variable slot they constrain, so each can be
	// applied as soon as the slot's column is gathered.
	slotConds [][]unaryCheck
	slotIDB   [][]idbUnaryRef
	// invPaths[ai] walks from the slot of lr.idbUnary[ai] back to the
	// anchor, inverting each spanning-tree step; empty when the atom
	// sits on the anchor itself.
	invPaths [][]invStep
}

// invStep is one spanning-tree step to undo: the original step bound
// its target in the direction recorded by forward, so the inverse
// applies the opposite direction of the same injective partial
// function.
type invStep struct {
	edge    binEdge
	forward bool
}

// NewBitmapPlan validates and prepares p for repeated bitmap-engine
// evaluation. It accepts exactly the programs NewPlan accepts (the
// linear fragment of Theorem 4.2: monadic, τ_ur ∪ {lastchild,
// child_k}, no child/2 — eliminate that with tmnf.Transform first).
func NewBitmapPlan(p *datalog.Program) (*BitmapPlan, error) {
	pl, err := NewPlan(p)
	if err != nil {
		return nil, err
	}
	return bitmapOf(pl), nil
}

// bitmapOf derives the bitmap-engine analyses from a prepared
// linear plan.
func bitmapOf(pl *Plan) *BitmapPlan {
	bp := &BitmapPlan{
		pl:        pl,
		rules:     make([]bitmapRule, 0, len(pl.rules)),
		unaryDeps: make([][]int, len(pl.unaryPreds)),
		propDeps:  make([][]int, len(pl.propPreds)),
	}
	for ri, lr := range pl.rules {
		br := bitmapRule{
			lr:        lr,
			slotConds: make([][]unaryCheck, lr.nvars),
			slotIDB:   make([][]idbUnaryRef, lr.nvars),
			invPaths:  make([][]invStep, len(lr.idbUnary)),
		}
		if lr.nvars > bp.maxVars {
			bp.maxVars = lr.nvars
		}
		for _, u := range lr.unary {
			br.slotConds[u.v] = append(br.slotConds[u.v], u)
		}
		for _, u := range lr.idbUnary {
			br.slotIDB[u.v] = append(br.slotIDB[u.v], u)
		}
		// Which step bound each slot (the anchor has none).
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
		for ai, u := range lr.idbUnary {
			var path []invStep
			for s := u.v; s != lr.anchor; {
				st := lr.steps[boundBy[s]]
				path = append(path, invStep{edge: st.edge, forward: st.forward})
				if st.forward {
					s = st.edge.x
				} else {
					s = st.edge.y
				}
			}
			br.invPaths[ai] = path
		}
		seen := map[int]bool{}
		for _, u := range lr.idbUnary {
			if !seen[u.pid] {
				seen[u.pid] = true
				bp.unaryDeps[u.pid] = append(bp.unaryDeps[u.pid], ri)
			}
		}
		seenP := map[int]bool{}
		for _, pid := range lr.idbProp {
			if !seenP[pid] {
				seenP[pid] = true
				bp.propDeps[pid] = append(bp.propDeps[pid], ri)
			}
		}
		bp.rules = append(bp.rules, br)
	}
	return bp
}

// Program returns the source program the plan was built from.
func (bp *BitmapPlan) Program() *datalog.Program { return bp.pl.Program() }

// Engine returns EngineBitmap.
func (bp *BitmapPlan) Engine() Engine { return EngineBitmap }

// QueryPred returns the program's distinguished query predicate.
func (bp *BitmapPlan) QueryPred() string { return bp.pl.QueryPred() }

// bitmapRun is the mutable state of one Run call, owned exclusively by
// that call between the pool Get and Put — which is what keeps Run
// safe to call concurrently on a shared BitmapPlan.
type bitmapRun struct {
	bp        *BitmapPlan
	nav       *Nav
	dom       int
	labelSyms []int32

	// unary[pid] is the predicate's current extension. delta[pid] lists
	// the node ids this round added to it and nextDelta[pid] those the
	// previous round added (the frontier being read); the dirty lists
	// name the predicates whose list is nonempty. A node joins a delta
	// only when it is new to the extension, so the ids are unique and
	// Σ|Δ_p| over a run is at most |dom|: reading and resetting the
	// deltas costs O(|Δ|) per round, never O(|dom|).
	unary     []*bitset.Set
	delta     [][]int32
	nextDelta [][]int32
	dirty     []int
	nextDirty []int
	props     []bool
	propDirty []int

	// Lazily built per-condition bitmaps shared by every rule that
	// seeds its live set from the same label test or node class.
	// deadBm masks the tombstoned rows of a mutated arena out of every
	// condition bitmap (nil while the document has no dead rows).
	labelBm []*bitset.Set
	kindBm  [uDom + 1]*bitset.Set
	deadBm  *bitset.Set

	// Scratch: live is the pipeline bitmap, cols the gathered binding
	// columns (one per non-anchor slot), binding the scalar-evaluation
	// buffer, ruleStamp the per-round rule dedup marks, woken the
	// per-round wake-up list.
	live      *bitset.Set
	cols      [][]int32
	binding   []int
	ruleStamp []int
	woken     []int
	round     int

	// work counts the run's propagation work: delta elements visited
	// by sparse rounds plus words swept by whole-domain columnar
	// passes. Linearity tests assert it grows with |dom|, not with
	// |dom|·rounds.
	work int
}

// acquire returns run state for nav: a pooled state of the same
// domain size when one is available, a freshly allocated one otherwise.
// The gather columns are never cleared — every read of a column entry
// is preceded by a write for the same live bit within the same pass.
func (bp *BitmapPlan) acquire(nav *Nav) *bitmapRun {
	dom := nav.Dom()
	if v := bp.pool.Get(); v != nil {
		st := v.(*bitmapRun)
		if st.dom == dom {
			// The sized allocations are reusable; the per-document
			// bitmaps and symbol table are not.
			clear(st.labelBm)
			clear(st.kindBm[:])
			st.deadBm = nil
			for i, l := range bp.pl.labels {
				st.labelSyms[i] = nav.LabelID(l)
			}
			st.nav = nav
			for i := range st.unary {
				st.unary[i].Clear()
			}
			clear(st.props)
			st.reset()
			return st
		}
	}
	pl := bp.pl
	st := &bitmapRun{
		bp:        bp,
		nav:       nav,
		dom:       dom,
		unary:     make([]*bitset.Set, len(pl.unaryPreds)),
		delta:     make([][]int32, len(pl.unaryPreds)),
		nextDelta: make([][]int32, len(pl.unaryPreds)),
		props:     make([]bool, len(pl.propPreds)),
		labelBm:   make([]*bitset.Set, len(pl.labels)),
		live:      bitset.New(dom),
		cols:      make([][]int32, bp.maxVars),
		binding:   make([]int, bp.maxVars),
		ruleStamp: make([]int, len(bp.rules)),
	}
	for i := range st.unary {
		st.unary[i] = bitset.New(dom)
	}
	if len(pl.labels) > 0 {
		st.labelSyms = make([]int32, len(pl.labels))
		for i, l := range pl.labels {
			st.labelSyms[i] = nav.LabelID(l)
		}
	}
	return st
}

// Run evaluates the program on the document behind nav, returning the
// intensional relations among project (nil: all) — the same T_P^ω
// restriction Plan.Run computes, by bulk bitmap algebra instead of
// Horn propagation.
func (bp *BitmapPlan) Run(nav *Nav, project []string) (*datalog.Database, error) {
	st := bp.acquire(nav)
	st.evalAll()
	out := materialize(bp.pl, st.unary, st.props, st.dom, project)
	bp.release(st)
	return out, nil
}

// evalAll computes the least model from empty extensions. Round 0 is a
// full columnar evaluation of every rule, whose derivations land in
// the delta lists; semi-naive rounds then run to fixpoint.
func (st *bitmapRun) evalAll() {
	for ri := range st.bp.rules {
		st.evalColumnar(ri)
	}
	st.fixpoint()
}

// reset empties the semi-naive bookkeeping (deltas, dirty lists, rule
// stamps, work counter) for a new run; the extensions and props are
// the caller's to reset.
func (st *bitmapRun) reset() {
	for i := range st.delta {
		st.delta[i] = st.delta[i][:0]
		st.nextDelta[i] = st.nextDelta[i][:0]
	}
	for i := range st.ruleStamp {
		st.ruleStamp[i] = 0
	}
	st.dirty = st.dirty[:0]
	st.nextDirty = st.nextDirty[:0]
	st.propDirty = nil
	st.round = 0
	st.work = 0
}

// release parks run state in the pool. The Nav reference is dropped:
// the navigation arrays alias every arena column, and a pooled state
// must not keep a closed document session's arena alive.
func (bp *BitmapPlan) release(st *bitmapRun) {
	st.nav = nil
	bp.pool.Put(st)
}

// fixpoint runs semi-naive rounds until nothing new is derived: wake
// exactly the rules that read a predicate whose extension grew, until
// a round derives nothing (every delta list stayed empty). On entry
// st.delta / st.dirty hold the seed round's derivations; it is shared
// between full evaluation (seeded by the round-0 columnar pass) and
// incremental maintenance (seeded by the rederivation frontier of an
// arena delta).
//
// Every per-round cost is O(|Δ|): the wake-up list, the dense test,
// the sparse walks and the reset of the processed lists all read the
// delta ids, never the domain. A rule's dense (columnar) re-sweep needs
// its incoming deltas to exceed |dom|/8, and each predicate's deltas
// sum to at most |dom| over the run, so a rule re-sweeps at most 8
// times per IDB body atom and the whole run stays O(|P|·|dom|) however
// many rounds a sibling chain forces.
func (st *bitmapRun) fixpoint() {
	bp := st.bp
	for len(st.dirty) > 0 || len(st.propDirty) > 0 {
		st.round++
		woken := st.wokenRules()
		dirty, propDirty := st.dirty, st.propDirty
		st.dirty, st.nextDirty = st.nextDirty, st.dirty[:0]
		st.delta, st.nextDelta = st.nextDelta, st.delta
		st.propDirty = nil

		for _, ri := range woken {
			br := &bp.rules[ri]
			if br.lr.headVar < 0 && st.props[br.lr.headID] {
				continue // propositional head already derived
			}
			if st.propTriggered(br, propDirty) || st.denseDelta(br) {
				st.evalColumnar(ri)
			} else {
				st.evalSparse(ri)
			}
		}

		// The processed lists become next round's write targets.
		for _, pid := range dirty {
			st.nextDelta[pid] = st.nextDelta[pid][:0]
		}
	}
}

// materialize converts the extension bitmaps of the projected
// predicates (nil: all) into the Database shape the engines return;
// auxiliary relations are never built.
func materialize(pl *Plan, unary []*bitset.Set, props []bool, dom int, project []string) *datalog.Database {
	out := datalog.NewDatabase(dom)
	var ids []int
	for pi, pred := range pl.unaryPreds {
		if !projected(project, pred) {
			continue
		}
		ids = unary[pi].AppendBits(ids[:0])
		out.Rel(pred, 1).AddUnarySet(ids)
	}
	for pi, pred := range pl.propPreds {
		if props[pi] && projected(project, pred) {
			out.Rel(pred, 0).Add(nil)
		}
	}
	return out
}

// wokenRules collects, deduplicated and in index order, the rules
// reading a predicate that changed last round. st.delta/st.dirty still
// hold last round's deltas when it runs.
func (st *bitmapRun) wokenRules() []int {
	woken := st.woken[:0]
	wake := func(ri int) {
		if st.ruleStamp[ri] != st.round {
			st.ruleStamp[ri] = st.round
			woken = append(woken, ri)
		}
	}
	for _, pid := range st.dirty {
		for _, ri := range st.bp.unaryDeps[pid] {
			wake(ri)
		}
	}
	for _, pid := range st.propDirty {
		for _, ri := range st.bp.propDeps[pid] {
			wake(ri)
		}
	}
	st.woken = woken
	return woken
}

// propTriggered reports whether one of the rule's propositional body
// atoms became true last round — such a flip can enable anchors
// anywhere, so only a full columnar re-evaluation is complete.
func (st *bitmapRun) propTriggered(br *bitmapRule, propDirty []int) bool {
	for _, pid := range br.lr.idbProp {
		for _, p := range propDirty {
			if p == pid {
				return true
			}
		}
	}
	return false
}

// denseDelta reports whether the rule's incoming deltas are so large
// that per-bit inverse walking would cost more than one bulk columnar
// pass over the whole domain.
func (st *bitmapRun) denseDelta(br *bitmapRule) bool {
	total := 0
	for _, u := range br.lr.idbUnary {
		// nextDelta holds last round's deltas during a round.
		total += len(st.nextDelta[u.pid])
	}
	return total*8 > st.dom
}

// aliveMask subtracts the tombstoned rows of a mutated arena from bm.
// On never-mutated documents (nav.Dead == nil) it is a no-op; the dead
// bitmap itself is built once per document and shared.
func (st *bitmapRun) aliveMask(bm *bitset.Set) {
	if st.nav.Dead == nil {
		return
	}
	if st.deadBm == nil {
		d := bitset.New(st.dom)
		for v, dead := range st.nav.Dead {
			if dead {
				d.Add(v)
			}
		}
		st.deadBm = d
	}
	bm.AndNot(st.deadBm)
}

// condBitmap returns (building lazily) the bitmap of nodes satisfying
// a unary EDB condition — the precomputed per-symbol label bitmaps and
// node-class bitmaps shared across all rules of a run. Tombstoned rows
// of a mutated arena never satisfy any condition: their columns still
// hold pre-removal values (so the column scans would admit them), and
// the alive mask subtracts them.
func (st *bitmapRun) condBitmap(u unaryCheck) *bitset.Set {
	if u.kind == uLabel {
		if bm := st.labelBm[u.labelIdx]; bm != nil {
			return bm
		}
		bm := bitset.New(st.dom)
		if sym := st.labelSyms[u.labelIdx]; sym >= 0 {
			bm.AddMatches32(st.nav.Label, sym)
		}
		st.aliveMask(bm)
		st.labelBm[u.labelIdx] = bm
		return bm
	}
	if bm := st.kindBm[u.kind]; bm != nil {
		return bm
	}
	bm := bitset.New(st.dom)
	nav := st.nav
	switch u.kind {
	case uRoot:
		bm.AddMatches32(nav.Parent, -1)
	case uLeaf:
		bm.AddMatches32(nav.FC, -1)
	case uLastSibling:
		for v, ns := range nav.NS {
			if ns == -1 && nav.Parent[v] != -1 {
				bm.Add(v)
			}
		}
	case uFirstSibling:
		for v, pr := range nav.Prev {
			if pr == -1 && nav.Parent[v] != -1 {
				bm.Add(v)
			}
		}
	case uDom:
		bm.Fill()
	}
	st.aliveMask(bm)
	st.kindBm[u.kind] = bm
	return bm
}

// holdsUnary is the scalar form of a unary EDB condition, read
// directly off the arena columns (identical to the linear engine's
// ground() tests).
func (st *bitmapRun) holdsUnary(u unaryCheck, w int) bool {
	nav := st.nav
	switch u.kind {
	case uLabel:
		return nav.Label[w] == st.labelSyms[u.labelIdx]
	case uRoot:
		return nav.Parent[w] == -1
	case uLeaf:
		return nav.FC[w] == -1
	case uLastSibling:
		return nav.NS[w] == -1 && nav.Parent[w] != -1
	case uFirstSibling:
		return nav.Prev[w] == -1 && nav.Parent[w] != -1
	case uDom:
		return true
	}
	return false
}

// col returns the gathered binding column of a slot, or nil for the
// anchor (whose binding is the node id itself).
func (st *bitmapRun) col(slot, anchor int) []int32 {
	if slot == anchor {
		return nil
	}
	if st.cols[slot] == nil {
		st.cols[slot] = make([]int32, st.dom)
	}
	return st.cols[slot]
}

// evalColumnar runs one rule's full bitmap pipeline over the whole
// domain, OR-ing any new head facts into the extension and the
// current write deltas.
func (st *bitmapRun) evalColumnar(ri int) {
	br := &st.bp.rules[ri]
	lr := br.lr
	for _, pid := range lr.idbProp {
		if !st.props[pid] {
			return
		}
	}
	if lr.nvars == 0 {
		st.setProp(lr.headID)
		return
	}
	// A body IDB atom over an empty extension can never be satisfied;
	// skip the bulk pass (the semi-naive rounds re-wake the rule the
	// moment the predicate gains its first fact).
	for _, u := range lr.idbUnary {
		if !st.unary[u.pid].Any() {
			return
		}
	}
	// One word per 64 nodes for the seed and for every step and check.
	st.work += (st.dom + 63) / 64 * (1 + len(lr.steps) + len(lr.checks))
	live := st.live
	st.seedAnchor(br, live)
	if !live.Any() {
		return
	}
	for _, ps := range lr.steps {
		st.applyStep(br, live, ps)
		if !live.Any() {
			return
		}
	}
	for _, e := range lr.checks {
		st.applyCheck(live, e, lr.anchor)
		if !live.Any() {
			return
		}
	}
	if lr.headVar >= 0 {
		// compileLinear anchors unary-headed rules at the head variable,
		// so live is the set of newly justified head nodes directly.
		pid := lr.headID
		d := st.delta[pid]
		st.delta[pid] = st.unary[pid].OrAppend(live, d)
		if len(d) == 0 && len(st.delta[pid]) > 0 {
			st.dirty = append(st.dirty, pid)
		}
	} else {
		st.setProp(lr.headID)
	}
}

// seedAnchor initializes live to the set of anchors satisfying every
// condition on the anchor slot: copied from the cheapest available
// bitmap (an IDB extension, then a cached condition bitmap, then the
// full domain) and intersected with the rest by word-level ANDs.
func (st *bitmapRun) seedAnchor(br *bitmapRule, live *bitset.Set) {
	lr := br.lr
	idb := br.slotIDB[lr.anchor]
	conds := br.slotConds[lr.anchor]
	switch {
	case len(idb) > 0:
		live.CopyFrom(st.unary[idb[0].pid])
		idb = idb[1:]
	case len(conds) > 0:
		live.CopyFrom(st.condBitmap(conds[0]))
		conds = conds[1:]
	default:
		// Unconditioned anchor: every live node. Dead rows cannot anchor
		// a derivation (they carry no facts), so mask them out here; the
		// non-anchor slots are then reached along live columns only.
		live.Fill()
		st.aliveMask(live)
	}
	for _, u := range idb {
		live.And(st.unary[u.pid])
	}
	for _, u := range conds {
		live.And(st.condBitmap(u))
	}
}

// applyStep gathers one spanning-tree step: for every live anchor the
// newly bound slot's node id is computed from the already-bound source
// slot's column, and the bound slot's conditions are applied in the
// same sweep — anchors whose binding is undefined or fails a condition
// drop out of the live word, survivors land in the bound slot's
// column.
func (st *bitmapRun) applyStep(br *bitmapRule, live *bitset.Set, ps planStep) {
	lr := br.lr
	var srcSlot, dstSlot int
	if ps.forward {
		srcSlot, dstSlot = ps.edge.x, ps.edge.y
	} else {
		srcSlot, dstSlot = ps.edge.y, ps.edge.x
	}
	src := st.col(srcSlot, lr.anchor)
	dst := st.col(dstSlot, lr.anchor)
	nav := st.nav
	// Every non-anchor slot is bound by exactly one step, so the bound
	// slot's conditions are checked here, fused into the gather —
	// scalar against the arena columns and extension bitmaps, no
	// second pass over live.
	conds := br.slotConds[dstSlot]
	idbs := br.slotIDB[dstSlot]
	passes := func(y int) bool {
		for _, u := range conds {
			if !st.holdsUnary(u, y) {
				return false
			}
		}
		for _, u := range idbs {
			if !st.unary[u.pid].Has(y) {
				return false
			}
		}
		return true
	}

	// Steps that are plain arena-column reads use a direct gather; the
	// guarded inverses (firstchild⁻¹, lastchild⁻¹, child_k) go through
	// the shared edge functions.
	var col []int32
	if ps.forward {
		switch ps.edge.kind {
		case binFirstChild:
			col = nav.FC
		case binNextSibling:
			col = nav.NS
		case binLastChild:
			col = nav.LastChild
		}
	} else if ps.edge.kind == binNextSibling {
		col = nav.Prev
	}
	if col != nil {
		live.UpdateWords(func(base int, w uint64) uint64 {
			for m := w; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				v := base + b
				x := v
				if src != nil {
					x = int(src[v])
				}
				y := col[x]
				dst[v] = y
				if y < 0 || !passes(int(y)) {
					w &^= 1 << uint(b)
				}
			}
			return w
		})
		return
	}
	edge, fw := ps.edge, ps.forward
	live.UpdateWords(func(base int, w uint64) uint64 {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := base + b
			x := v
			if src != nil {
				x = int(src[v])
			}
			var y int
			if fw {
				y = edge.forward(nav, x)
			} else {
				y = edge.backward(nav, x)
			}
			dst[v] = int32(y)
			if y < 0 || !passes(y) {
				w &^= 1 << uint(b)
			}
		}
		return w
	})
}

// applyCheck verifies a non-spanning-tree binary atom over the
// gathered columns, dropping anchors whose bindings fail it.
func (st *bitmapRun) applyCheck(live *bitset.Set, e binEdge, anchor int) {
	xcol := st.col(e.x, anchor)
	ycol := st.col(e.y, anchor)
	nav := st.nav
	live.UpdateWords(func(base int, w uint64) uint64 {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := base + b
			x, y := v, v
			if xcol != nil {
				x = int(xcol[v])
			}
			if ycol != nil {
				y = int(ycol[v])
			}
			if e.forward(nav, x) != y {
				w &^= 1 << uint(b)
			}
		}
		return w
	})
}

// evalSparse propagates last round's deltas through one rule without
// touching the rest of the domain: every delta node determines (via
// the inverse spanning-tree path — each τ_ur step is an injective
// partial function, so the walk is exact) the unique candidate anchor
// it could justify, and each candidate is checked scalar against the
// full body.
func (st *bitmapRun) evalSparse(ri int) {
	br := &st.bp.rules[ri]
	lr := br.lr
	nav := st.nav
	var head *bitset.Set
	if lr.headVar >= 0 {
		head = st.unary[lr.headID]
	}
	for ai, u := range lr.idbUnary {
		ids := st.nextDelta[u.pid] // last round's delta
		st.work += len(ids)
		path := br.invPaths[ai]
	next:
		for _, w := range ids {
			v := int(w)
			for _, is := range path {
				if is.forward {
					v = is.edge.backward(nav, v)
				} else {
					v = is.edge.forward(nav, v)
				}
				if v < 0 {
					continue next
				}
			}
			if head != nil && head.Has(v) {
				continue
			}
			if !st.evalAnchor(lr, v) {
				continue
			}
			if head == nil {
				st.setProp(lr.headID)
				return
			}
			st.derive(lr.headID, v)
		}
	}
}

// evalAnchor checks the full rule body for one anchor binding — the
// scalar mirror of the columnar pipeline, with IDB atoms tested
// against the current extension bitmaps.
func (st *bitmapRun) evalAnchor(lr *linearRule, anchorVal int) bool {
	nav := st.nav
	binding := st.binding
	binding[lr.anchor] = anchorVal
	for _, s := range lr.steps {
		if s.forward {
			w := s.edge.forward(nav, binding[s.edge.x])
			if w == -1 {
				return false
			}
			binding[s.edge.y] = w
		} else {
			w := s.edge.backward(nav, binding[s.edge.y])
			if w == -1 {
				return false
			}
			binding[s.edge.x] = w
		}
	}
	for _, e := range lr.checks {
		if e.forward(nav, binding[e.x]) != binding[e.y] {
			return false
		}
	}
	for _, u := range lr.unary {
		if !st.holdsUnary(u, binding[u.v]) {
			return false
		}
	}
	for _, u := range lr.idbUnary {
		if !st.unary[u.pid].Has(binding[u.v]) {
			return false
		}
	}
	for _, pid := range lr.idbProp {
		if !st.props[pid] {
			return false
		}
	}
	return true
}

// derive adds the fact pid(v), which the caller has checked is new, to
// the extension and to this round's delta; the predicate turns dirty
// with its first delta element.
func (st *bitmapRun) derive(pid, v int) {
	st.unary[pid].Add(v)
	if len(st.delta[pid]) == 0 {
		st.dirty = append(st.dirty, pid)
	}
	st.delta[pid] = append(st.delta[pid], int32(v))
}

// setProp derives a propositional predicate, recording the flip for
// next round's wake-ups (each prop flips at most once per run).
func (st *bitmapRun) setProp(pid int) {
	if !st.props[pid] {
		st.props[pid] = true
		st.propDirty = append(st.propDirty, pid)
	}
}

// BitmapTree evaluates a monadic datalog program on one tree with the
// bitmap engine, returning the intensional relations. Single-shot: it
// prepares the plan anew on every call; use NewBitmapPlan + Run to
// amortize preparation across documents.
func BitmapTree(p *datalog.Program, t *tree.Tree) (*datalog.Database, error) {
	bp, err := NewBitmapPlan(p)
	if err != nil {
		return nil, err
	}
	return bp.Run(NewNav(t), nil)
}
