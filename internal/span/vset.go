package span

// The variable-set automaton (vset automaton): a Thompson NFA whose
// ε-like edges include variable-open / variable-close markers. One
// accepting run over a substring yields one tuple of capture spans;
// Enumerate produces EVERY tuple for EVERY matching substring — the
// all-matches semantics of document spanners, not leftmost-longest.
//
// Enumeration is a DFS over (state, position) configurations pruned by
// a backward feasibility pass: useful[pos] is the bitset of states from
// which some accepting configuration is reachable using the remaining
// text, computed right-to-left in O(len · edges) before the DFS starts,
// so the DFS never walks a doomed branch. Two literal prefilters —
// a mandatory substring every match contains and a literal prefix
// every match starts with — skip non-matching sources without touching
// the DP at all.

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	eEps uint8 = iota
	eOpen
	eClose
	eByte
)

type edge struct {
	kind uint8
	v    int32 // variable index (eOpen / eClose)
	cls  int32 // class index (eByte)
	to   int32
}

type charEdge struct{ from, to, cls int32 }

// Auto is a compiled variable-set automaton. Immutable and safe for
// concurrent use; per-run state lives in a Scratch.
type Auto struct {
	edges   [][]edge
	classes []class
	revEps  [][]int32 // reverse ε/open/close adjacency (for the DP)
	chars   []charEdge
	start   int32
	accept  int32
	nvars   int

	// backClosure[s] is the bitset of states with a non-consuming path
	// to s (s included), so the DP's backward ε-closure is a single
	// union pass instead of a worklist fixpoint.
	backClosure [][]uint64

	// startLit is a literal prefix every match starts with ("" if
	// none): candidate start positions are found by substring scan.
	startLit string
	// mustLit is a literal substring every match contains ("" if
	// none): sources without it are skipped in O(len) with no DP.
	mustLit string
}

// NumStates returns the automaton's state count (for tests and
// explain output).
func (a *Auto) NumStates() int { return len(a.edges) }

// Compile builds (and memoizes) the formula's vset automaton.
func (f *Formula) Compile() *Auto {
	if f.auto == nil {
		f.auto = compileAuto(f)
	}
	return f.auto
}

type autoBuilder struct {
	edges   [][]edge
	classes []class
	clsIdx  map[class]int32
}

func (b *autoBuilder) state() int32 {
	b.edges = append(b.edges, nil)
	return int32(len(b.edges) - 1)
}

func (b *autoBuilder) add(from int32, e edge) { b.edges[from] = append(b.edges[from], e) }

func (b *autoBuilder) classIdx(c class) int32 {
	if i, ok := b.clsIdx[c]; ok {
		return i
	}
	i := int32(len(b.classes))
	b.classes = append(b.classes, c)
	b.clsIdx[c] = i
	return i
}

// build returns the fragment's (start, end) states; end has no
// outgoing edges yet (standard Thompson shape).
func (b *autoBuilder) build(n reNode) (int32, int32) {
	switch x := n.(type) {
	case reEmpty:
		s, e := b.state(), b.state()
		b.add(s, edge{kind: eEps, to: e})
		return s, e
	case reClass:
		s, e := b.state(), b.state()
		b.add(s, edge{kind: eByte, cls: b.classIdx(x.cls), to: e})
		return s, e
	case reCat:
		s, e := b.build(x.subs[0])
		for _, sub := range x.subs[1:] {
			s2, e2 := b.build(sub)
			b.add(e, edge{kind: eEps, to: s2})
			e = e2
		}
		return s, e
	case reAlt:
		s, e := b.state(), b.state()
		for _, sub := range x.subs {
			si, ei := b.build(sub)
			b.add(s, edge{kind: eEps, to: si})
			b.add(ei, edge{kind: eEps, to: e})
		}
		return s, e
	case reStar:
		s, e := b.state(), b.state()
		si, ei := b.build(x.sub)
		b.add(s, edge{kind: eEps, to: si})
		b.add(ei, edge{kind: eEps, to: si}) // loop (body is non-nullable, so no ε-cycle)
		b.add(ei, edge{kind: eEps, to: e})
		if x.min == 0 {
			b.add(s, edge{kind: eEps, to: e})
		}
		return s, e
	case reCap:
		s, e := b.state(), b.state()
		si, ei := b.build(x.sub)
		b.add(s, edge{kind: eOpen, v: int32(x.v), to: si})
		b.add(ei, edge{kind: eClose, v: int32(x.v), to: e})
		return s, e
	}
	panic("span: unknown regex node")
}

func compileAuto(f *Formula) *Auto {
	b := &autoBuilder{clsIdx: map[class]int32{}}
	start, accept := b.build(f.root)
	a := &Auto{
		edges:   b.edges,
		classes: b.classes,
		start:   start,
		accept:  accept,
		nvars:   len(f.Vars),
	}
	a.revEps = make([][]int32, len(a.edges))
	for from, es := range a.edges {
		for _, e := range es {
			if e.kind == eByte {
				a.chars = append(a.chars, charEdge{from: int32(from), to: e.to, cls: e.cls})
			} else {
				a.revEps[e.to] = append(a.revEps[e.to], int32(from))
			}
		}
	}
	if cyclicEps(a) {
		// Unreachable after checkStars; a defensive panic beats silent
		// non-termination in the DFS.
		panic(fmt.Sprintf("span: ε-cycle in automaton for /%s/", f.src))
	}
	a.buildBackClosure()
	pfx, _ := litPrefix(f.root)
	a.startLit = pfx
	a.mustLit = mustLit(f.root)
	if a.mustLit == "" {
		a.mustLit = a.startLit
	}
	return a
}

// buildBackClosure computes the transitive backward closure of the
// non-consuming edge graph as per-state bitmasks (compile-time
// fixpoint; the graph is a DAG, so it converges in depth passes).
func (a *Auto) buildBackClosure() {
	words := (len(a.edges) + 63) / 64
	a.backClosure = make([][]uint64, len(a.edges))
	for s := range a.backClosure {
		m := make([]uint64, words)
		m[s>>6] |= 1 << (s & 63)
		a.backClosure[s] = m
	}
	for changed := true; changed; {
		changed = false
		for s, preds := range a.revEps {
			m := a.backClosure[s]
			for _, p := range preds {
				for w, word := range a.backClosure[p] {
					if m[w]|word != m[w] {
						m[w] |= word
						changed = true
					}
				}
			}
		}
	}
}

// cyclicEps reports whether the non-consuming edge graph has a cycle
// (DFS three-coloring).
func cyclicEps(a *Auto) bool {
	color := make([]byte, len(a.edges))
	var visit func(s int32) bool
	visit = func(s int32) bool {
		color[s] = 1
		for _, e := range a.edges[s] {
			if e.kind == eByte {
				continue
			}
			switch color[e.to] {
			case 1:
				return true
			case 0:
				if visit(e.to) {
					return true
				}
			}
		}
		color[s] = 2
		return false
	}
	for s := range a.edges {
		if color[s] == 0 && visit(int32(s)) {
			return true
		}
	}
	return false
}

// litPrefix returns a literal string every match of n starts with, and
// whether n matches exactly that string and nothing else.
func litPrefix(n reNode) (string, bool) {
	switch x := n.(type) {
	case reEmpty:
		return "", true
	case reClass:
		if b := x.cls.single(); b >= 0 {
			return string([]byte{byte(b)}), true
		}
		return "", false
	case reCat:
		var sb strings.Builder
		for _, sub := range x.subs {
			p, exact := litPrefix(sub)
			sb.WriteString(p)
			if !exact {
				return sb.String(), false
			}
		}
		return sb.String(), true
	case reAlt:
		p0, e0 := litPrefix(x.subs[0])
		for _, sub := range x.subs[1:] {
			p, e := litPrefix(sub)
			if !e || !e0 || p != p0 {
				// Fall back to the longest common prefix of the branch
				// prefixes (still a valid start-literal).
				n := 0
				for n < len(p) && n < len(p0) && p[n] == p0[n] {
					n++
				}
				p0, e0 = p0[:n], false
			}
		}
		return p0, e0
	case reStar:
		if x.min >= 1 {
			p, _ := litPrefix(x.sub)
			return p, false
		}
		return "", false
	case reCap:
		return litPrefix(x.sub)
	}
	return "", false
}

// mustLit returns the longest literal substring every match of n is
// guaranteed to contain ("" when there is none).
func mustLit(n reNode) string {
	switch x := n.(type) {
	case reEmpty:
		return ""
	case reClass:
		if b := x.cls.single(); b >= 0 {
			return string([]byte{byte(b)})
		}
		return ""
	case reCat:
		// Merge maximal runs of exact-literal children; a non-exact
		// child breaks the run but contributes its own mandatory
		// substring.
		best, run := "", ""
		flush := func() {
			if len(run) > len(best) {
				best = run
			}
			run = ""
		}
		for _, sub := range x.subs {
			p, exact := litPrefix(sub)
			if exact {
				run += p
				continue
			}
			flush()
			if m := mustLit(sub); len(m) > len(best) {
				best = m
			}
		}
		flush()
		return best
	case reAlt:
		m0 := mustLit(x.subs[0])
		for _, sub := range x.subs[1:] {
			if m0 == "" || mustLit(sub) != m0 {
				return ""
			}
		}
		return m0
	case reStar:
		if x.min >= 1 {
			return mustLit(x.sub)
		}
		return ""
	case reCap:
		return mustLit(x.sub)
	}
	return ""
}

// ---------------------------------------------------------------------
// Enumeration.

// Scratch holds the per-run buffers of Enumerate so a caller scanning
// many sources (one per node) allocates them once. Not safe for
// concurrent use; one Scratch per goroutine.
type Scratch struct {
	useful []uint64 // (len+1) rows × words bitset
	words  int
	marks  []int32
	// seen dedups emitted tuples. Small runs use the flat list
	// (zero-alloc linear scan); past seenFlatMax it spills into the map.
	seenFlat []int32
	seenMap  map[string]struct{}
	keyBuf   []byte
}

const seenFlatMax = 32

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{} }

func (sc *Scratch) bit(pos int, st int32) bool {
	w := pos*sc.words + int(st>>6)
	return sc.useful[w]&(1<<(st&63)) != 0
}

func (sc *Scratch) setBit(row []uint64, st int32) { row[st>>6] |= 1 << (st & 63) }

// seenTuple records marks and reports whether they were already
// emitted this run. nm = len(marks).
func (sc *Scratch) seenTuple(marks []int32) bool {
	nm := len(marks)
	if sc.seenMap == nil {
		n := len(sc.seenFlat) / max(nm, 1)
		if nm == 0 {
			// A variable-free formula has exactly one (empty) tuple.
			if n == 0 || len(sc.seenFlat) == 0 {
				sc.seenFlat = append(sc.seenFlat, -1)
				return false
			}
			return true
		}
	outer:
		for i := 0; i < n; i++ {
			row := sc.seenFlat[i*nm : (i+1)*nm]
			for j, m := range marks {
				if row[j] != m {
					continue outer
				}
			}
			return true
		}
		if n < seenFlatMax {
			sc.seenFlat = append(sc.seenFlat, marks...)
			return false
		}
		// Spill to the map.
		sc.seenMap = make(map[string]struct{}, n*2)
		for i := 0; i < n; i++ {
			sc.seenMap[sc.tupleKey(sc.seenFlat[i*nm:(i+1)*nm])] = struct{}{}
		}
	}
	k := sc.tupleKey(marks)
	if _, ok := sc.seenMap[k]; ok {
		return true
	}
	sc.seenMap[k] = struct{}{}
	return false
}

func (sc *Scratch) tupleKey(marks []int32) string {
	sc.keyBuf = sc.keyBuf[:0]
	for _, m := range marks {
		sc.keyBuf = append(sc.keyBuf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return string(sc.keyBuf)
}

// Enumerate calls emit once per distinct capture tuple over all
// substrings of text the automaton matches. marks holds byte offsets
// into text as [open0, close0, open1, close1, ...] in Formula.Vars
// order; it is reused across calls — copy before retaining. A
// variable-free automaton emits at most one empty tuple (match
// existence). sc may be nil (a fresh scratch is allocated).
func (a *Auto) Enumerate(text string, sc *Scratch, emit func(marks []int32)) {
	if a.mustLit != "" && !strings.Contains(text, a.mustLit) {
		return
	}
	if sc == nil {
		sc = NewScratch()
	}
	sc.seenFlat = sc.seenFlat[:0]
	sc.seenMap = nil
	if cap(sc.marks) < 2*a.nvars {
		sc.marks = make([]int32, 2*a.nvars)
	}
	sc.marks = sc.marks[:2*a.nvars]

	// Backward feasibility: useful[pos] = states from which an
	// accepting configuration is reachable with text[pos:].
	n := len(text)
	words := (len(a.edges) + 63) / 64
	sc.words = words
	need := (n + 1) * words
	if cap(sc.useful) < need {
		sc.useful = make([]uint64, need)
	} else {
		sc.useful = sc.useful[:need]
	}
	if words == 1 {
		// Single-word fast path: each row is computed into a register
		// and stored whole, so the reused buffer needs no clearing and
		// the ε-closure is a popcount-bounded mask union.
		acceptBit := uint64(1) << (a.accept & 63)
		sc.useful[n] = a.closeWord(acceptBit)
		for pos := n - 1; pos >= 0; pos-- {
			r := acceptBit
			next := sc.useful[pos+1]
			c := text[pos]
			for _, ce := range a.chars {
				if next&(1<<(ce.to&63)) != 0 && a.classes[ce.cls].has(c) {
					r |= 1 << (ce.from & 63)
				}
			}
			sc.useful[pos] = a.closeWord(r)
		}
	} else {
		clear(sc.useful)
		row := sc.useful[n*words : (n+1)*words]
		sc.setBit(row, a.accept)
		a.epsBack(row)
		for pos := n - 1; pos >= 0; pos-- {
			row := sc.useful[pos*words : (pos+1)*words]
			next := sc.useful[(pos+1)*words : (pos+2)*words]
			sc.setBit(row, a.accept)
			c := text[pos]
			for _, ce := range a.chars {
				if next[ce.to>>6]&(1<<(ce.to&63)) != 0 && a.classes[ce.cls].has(c) {
					row[ce.from>>6] |= 1 << (ce.from & 63)
				}
			}
			a.epsBack(row)
		}
	}

	// Candidate starts: occurrences of the literal prefix, or every
	// position (n inclusive: the empty suffix can still match ε-only
	// formulas — excluded by construction but harmless).
	if a.startLit != "" {
		for from := 0; from <= n-len(a.startLit); {
			i := strings.Index(text[from:], a.startLit)
			if i < 0 {
				break
			}
			a.dfs(text, a.start, from+i, sc, emit)
			from += i + 1
		}
		return
	}
	for pos := 0; pos <= n; pos++ {
		a.dfs(text, a.start, pos, sc, emit)
	}
}

// epsBack closes row backward over the non-consuming edges (if s is in
// the set, every ε/open/close predecessor of s joins it). One pass
// over the set bits suffices: backClosure is transitive, so any bit a
// union adds already carries its own closure.
func (a *Auto) epsBack(row []uint64) {
	for w := range row {
		word := row[w]
		base := w << 6
		for word != 0 {
			s := base + bits.TrailingZeros64(word)
			word &= word - 1
			for i, m := range a.backClosure[s] {
				row[i] |= m
			}
		}
	}
}

// closeWord is epsBack for automata that fit in one word (≤64 states,
// the common case) — branch-free enough to sit in the DP's inner loop.
func (a *Auto) closeWord(r uint64) uint64 {
	acc := r
	for r != 0 {
		s := bits.TrailingZeros64(r)
		r &= r - 1
		acc |= a.backClosure[s][0]
	}
	return acc
}

func (a *Auto) dfs(text string, st int32, pos int, sc *Scratch, emit func([]int32)) {
	if !sc.bit(pos, st) {
		return
	}
	if st == a.accept {
		if !sc.seenTuple(sc.marks) {
			emit(sc.marks)
		}
	}
	for _, e := range a.edges[st] {
		switch e.kind {
		case eEps:
			a.dfs(text, e.to, pos, sc, emit)
		case eOpen:
			old := sc.marks[2*e.v]
			sc.marks[2*e.v] = int32(pos)
			a.dfs(text, e.to, pos, sc, emit)
			sc.marks[2*e.v] = old
		case eClose:
			old := sc.marks[2*e.v+1]
			sc.marks[2*e.v+1] = int32(pos)
			a.dfs(text, e.to, pos, sc, emit)
			sc.marks[2*e.v+1] = old
		case eByte:
			if pos < len(text) && a.classes[e.cls].has(text[pos]) {
				a.dfs(text, e.to, pos+1, sc, emit)
			}
		}
	}
}
