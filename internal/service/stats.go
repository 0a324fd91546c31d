package service

import (
	"net/http"
	"time"

	mdlog "mdlog"
)

// wrapperStats is one wrapper's point-in-time measurement: the
// compiled query's lifetime aggregate plus its cache snapshot.
type wrapperStats struct {
	wr    *Wrapper
	query mdlog.Stats
	cache mdlog.CacheStats
	// cached is false when the wrapper was compiled without a cache.
	cached bool
	// opt is the compile-time optimizer report (zero for plans that
	// did not route through datalog).
	opt mdlog.OptReport
}

// snapshot collects per-wrapper stats (registry order: sorted by name)
// and the service-wide rollup of the query stats.
func (s *Server) snapshot() ([]wrapperStats, mdlog.Stats) {
	ws := s.reg.Snapshot()
	out := make([]wrapperStats, len(ws))
	var total mdlog.Stats
	for i, wr := range ws {
		st := wrapperStats{wr: wr, query: wr.Query.Stats(), opt: wr.Query.OptStats()}
		if c := wr.Query.Cache(); c != nil {
			st.cache = c.Stats()
			st.cached = true
		}
		total.Merge(st.query)
		out[i] = st
	}
	return out, total
}

// queryStatsJSON renders a lifetime aggregate (see mdlog.Stats). The
// "engine" entry is the engine that served the aggregated runs —
// "mixed" when they span engines (e.g. the totals of a fleet holding
// both bitmap-engine wrappers and an MSO automaton wrapper), "" for
// totals over an empty registry.
func queryStatsJSON(st mdlog.Stats) map[string]any {
	return map[string]any{
		"runs":           st.Runs,
		"fused_runs":     st.FusedRuns,
		"subsumed_runs":  st.SubsumedRuns,
		"facts":          st.Facts,
		"spans":          st.Spans,
		"cache_hits":     st.CacheHits,
		"parse_ns":       int64(st.Parse),
		"compile_ns":     int64(st.Compile),
		"materialize_ns": int64(st.Materialize),
		"eval_ns":        int64(st.Eval),
		"engine":         st.Engine,
	}
}

// runStatsJSON renders a single run's measurements (the per-request
// stats attached to /extract responses).
func runStatsJSON(st mdlog.Stats) map[string]any {
	return map[string]any{
		"facts":          st.Facts,
		"spans":          st.Spans,
		"cache_hits":     st.CacheHits,
		"materialize_ns": int64(st.Materialize),
		"eval_ns":        int64(st.Eval),
		"engine":         st.Engine,
	}
}

func cacheStatsJSON(cs mdlog.CacheStats) map[string]any {
	return map[string]any{
		"trees":            cs.Trees,
		"results":          cs.Results,
		"hits":             cs.Hits,
		"misses":           cs.Misses,
		"result_evictions": cs.ResultEvictions,
	}
}

// subsumePlans returns the fused all-wrapper set's per-member compile
// decisions keyed by wrapper name, plus its fuse report. ok is false
// when no set exists (empty registry) or the set failed to build —
// introspection surfaces then simply omit the subsumption view.
func (s *Server) subsumePlans() (map[string]mdlog.MemberPlan, mdlog.FuseReport, bool) {
	set, err := s.querySet()
	if err != nil || set == nil {
		return nil, mdlog.FuseReport{}, false
	}
	plans := set.Plans()
	out := make(map[string]mdlog.MemberPlan, len(plans))
	for _, p := range plans {
		out[p.Name] = p
	}
	return out, set.FuseStats(), true
}

// memberPlanJSON renders one wrapper's compile decision in the fused
// all-wrapper set: "evaluated" (owns rules in the fused pass),
// "subsumed" (answered by projection from an equivalent wrapper), or
// "individual" (not covered by the fused pass).
func memberPlanJSON(p mdlog.MemberPlan) map[string]any {
	mode := "individual"
	switch {
	case p.Subsumed:
		mode = "subsumed"
	case p.Fused:
		mode = "evaluated"
	}
	entry := map[string]any{"mode": mode, "rules": p.Rules}
	if p.Fused {
		entry["class"] = p.Class
	}
	if p.SharedWith != "" {
		entry["shared_with"] = p.SharedWith
	}
	return entry
}

// fuseReportJSON renders the registry-wide fusion/subsumption report:
// what the compile pipeline merged and proved across the
// whole wrapper fleet.
func fuseReportJSON(rep mdlog.FuseReport) map[string]any {
	return map[string]any{
		"members":         rep.Members,
		"rules_in":        rep.RulesIn,
		"rules_out":       rep.RulesOut,
		"merged_preds":    rep.MergedPreds,
		"merged_rules":    rep.MergedRules,
		"subsume_checked": rep.SubsumeChecked,
		"subsumed_preds":  rep.SubsumedPreds,
		"subsume_unknown": rep.SubsumeUnknown,
		"unfolded":        rep.Unfolded,
		"check_ns":        rep.CheckNs,
	}
}

// handleStats reports per-wrapper query + cache aggregates, the
// service-wide rollup, and the daemon's own counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats, total := s.snapshot()
	plans, fuseRep, havePlans := s.subsumePlans()
	wrappers := make(map[string]any, len(stats))
	for _, st := range stats {
		entry := map[string]any{
			"lang":    st.wr.Spec.Lang.String(),
			"version": st.wr.Version,
			// The engine the wrapper's own plan routes through (what an
			// individual /extract uses); the served-run attribution,
			// which can differ under fused passes, is query.engine.
			"engine": st.wr.Query.EngineName(),
			"query":  queryStatsJSON(st.query),
		}
		if st.cached {
			entry["cache"] = cacheStatsJSON(st.cache)
		}
		if st.opt.RulesBefore > 0 {
			entry["optimizer"] = map[string]any{
				"level":        st.opt.Level.String(),
				"rules_before": st.opt.RulesBefore,
				"rules_after":  st.opt.RulesAfter,
				"inlined":      st.opt.Inlined,
				"dead_rules":   st.opt.DeadRules,
			}
		}
		if p, ok := plans[st.wr.Name]; ok {
			entry["subsume"] = memberPlanJSON(p)
		}
		wrappers[st.wr.Name] = entry
	}
	body := map[string]any{
		"service":  s.serviceJSON(),
		"wrappers": wrappers,
		"totals":   queryStatsJSON(total),
	}
	if havePlans {
		body["fusion"] = fuseReportJSON(fuseRep)
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) serviceJSON() map[string]any {
	reqs := make(map[string]int64, endpoints)
	for ep := endpoint(0); ep < endpoints; ep++ {
		reqs[ep.String()] = s.requests[ep].Load()
	}
	svc := map[string]any{
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"wrappers":        s.reg.Len(),
		"in_flight":       s.inFlight.Load(),
		"max_in_flight":   s.maxIn,
		"rejected":        s.rejected.Load(),
		"documents":       s.documents.Load(),
		"document_errors": s.docErrors.Load(),
		"requests":        reqs,
		"sessions":        s.sessionsJSON(),
	}
	if s.store != nil {
		svc["store"] = map[string]any{
			"path":    s.store.Path(),
			"saves":   s.storeSaves.Load(),
			"errors":  s.storeErrors.Load(),
			"reloads": s.reloads.Load(),
		}
	}
	if s.docs != nil {
		cs := s.docs.stats()
		svc["doc_cache"] = map[string]any{
			"entries":   cs.entries,
			"max":       cs.max,
			"hits":      cs.hits,
			"misses":    cs.misses,
			"evictions": cs.evictions,
		}
	}
	if s.shardN > 0 {
		svc["shard"] = map[string]any{
			"index":     s.shardIdx,
			"of":        s.shardN,
			"misrouted": s.shardMisrouted.Load(),
		}
	}
	return svc
}

// sessionsJSON rolls up the live document sessions: the store state
// plus the incremental-maintenance counters summed across sessions.
func (s *Server) sessionsJSON() map[string]any {
	var applies, fallbacks, overdeleted, rederived int
	var edits int64
	sessions := s.sessions.snapshot()
	for _, ss := range sessions {
		ds := ss.doc.Stats()
		edits += ds.Edits
		applies += ds.Inc.Applies
		fallbacks += ds.Inc.Fallbacks
		overdeleted += ds.Inc.Overdeleted
		rederived += ds.Inc.Rederived
	}
	return map[string]any{
		"count":        len(sessions),
		"max":          s.sessions.max,
		"rejected":     s.sessionRejected.Load(),
		"edits":        s.sessionEdits.Load(),
		"live_edits":   edits,
		"inc_applies":  applies,
		"inc_fallback": fallbacks,
		"overdeleted":  overdeleted,
		"rederived":    rederived,
	}
}
