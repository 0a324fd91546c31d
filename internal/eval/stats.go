package eval

import "time"

// Stats records where time went for one compiled query: the one-time
// parse/compile phases and the per-run (or, when aggregated,
// cumulative) materialization and evaluation phases.
type Stats struct {
	// Parse is the time spent turning source text into an AST.
	Parse time.Duration
	// Compile is the time spent normalizing and preparing the plan
	// (datalog translation, TMNF rewriting, automaton construction,
	// grounding-plan compilation).
	Compile time.Duration
	// Materialize is the time spent building the navigation arrays a
	// grounding engine runs on (NewNav: O(1) over an existing arena,
	// plus the arena build on a pointer tree's first use); zero for a
	// run served from the result memo.
	Materialize time.Duration
	// Eval is the time spent in the engine proper.
	Eval time.Duration
	// Facts is the number of facts in the run's visible result
	// relations — the projected database Eval returns, whichever
	// answer shape (nodes, assignment, spans) is read from it.
	Facts int64
	// Runs is the number of executions aggregated into this Stats (1
	// for a per-run value).
	Runs int64
	// CacheHits counts runs answered from a TreeCache result memo
	// without evaluation.
	CacheHits int64
	// FusedRuns counts runs served by a fused QuerySet pass (one
	// shared evaluation for many wrappers) rather than an individual
	// evaluation; always ≤ Runs.
	FusedRuns int64
	// SubsumedRuns counts runs answered purely by projection from an
	// equivalent member's fused relation — the containment checker
	// proved this member's rules redundant, so zero evaluation work
	// was attributable to them; always ≤ FusedRuns.
	SubsumedRuns int64
	// Spans is the number of span tuples extracted (spanner queries
	// only; the span-rule result rows, not the node facts in Facts).
	Spans int64
	// Engine names the engine that served the runs ("linear",
	// "bitmap", "automaton", ...). Aggregating runs served by
	// different engines yields "mixed".
	Engine string
}

// mergeEngine combines two engine attributions: an unset side defers
// to the other, agreement is kept, and disagreement becomes "mixed".
func mergeEngine(a, b string) string {
	switch {
	case a == "" || a == b:
		return b
	case b == "":
		return a
	}
	return "mixed"
}

// Add accumulates o into s (compile-phase fields are kept from s
// unless unset, so aggregating per-run stats into a query-lifetime
// total preserves the one-time costs).
func (s *Stats) Add(o Stats) {
	if s.Parse == 0 {
		s.Parse = o.Parse
	}
	if s.Compile == 0 {
		s.Compile = o.Compile
	}
	s.Materialize += o.Materialize
	s.Eval += o.Eval
	s.Facts += o.Facts
	s.Runs += o.Runs
	s.CacheHits += o.CacheHits
	s.FusedRuns += o.FusedRuns
	s.SubsumedRuns += o.SubsumedRuns
	s.Spans += o.Spans
	s.Engine = mergeEngine(s.Engine, o.Engine)
}

// Merge sums every field of o into s, including the one-time
// parse/compile costs. Use it to roll the lifetime totals of several
// independent queries into one figure (e.g. a service-wide aggregate
// over a wrapper registry); use Add to fold per-run stats into a
// single query's lifetime total.
func (s *Stats) Merge(o Stats) {
	s.Parse += o.Parse
	s.Compile += o.Compile
	s.Materialize += o.Materialize
	s.Eval += o.Eval
	s.Facts += o.Facts
	s.Runs += o.Runs
	s.CacheHits += o.CacheHits
	s.FusedRuns += o.FusedRuns
	s.SubsumedRuns += o.SubsumedRuns
	s.Spans += o.Spans
	s.Engine = mergeEngine(s.Engine, o.Engine)
}
