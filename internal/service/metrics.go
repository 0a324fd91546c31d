package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// handleMetrics renders the same snapshot as /stats in the Prometheus
// text exposition format (version 0.0.4) — counters for traffic and
// per-wrapper work, gauges for current state — so a scraper needs no
// custom exporter in front of the daemon.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	stats, total := s.snapshot()

	gauge := func(name, help string, v string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, v)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	seconds := func(d time.Duration) string {
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}

	gauge("mdlogd_uptime_seconds", "Seconds since the server started.",
		seconds(time.Since(s.started)))
	gauge("mdlogd_wrappers", "Registered wrappers.",
		strconv.Itoa(s.reg.Len()))
	gauge("mdlogd_in_flight", "Extraction requests currently admitted.",
		strconv.FormatInt(s.inFlight.Load(), 10))
	gauge("mdlogd_max_in_flight", "Admission bound (<= 0: unbounded).",
		strconv.Itoa(s.maxIn))

	counter("mdlogd_requests_total", "HTTP requests by endpoint.")
	for ep := endpoint(0); ep < endpoints; ep++ {
		fmt.Fprintf(&b, "mdlogd_requests_total{endpoint=%q} %d\n", ep.String(), s.requests[ep].Load())
	}
	counter("mdlogd_rejected_total", "Requests shed by the admission bound.")
	fmt.Fprintf(&b, "mdlogd_rejected_total %d\n", s.rejected.Load())
	counter("mdlogd_documents_total", "Documents accepted for extraction.")
	fmt.Fprintf(&b, "mdlogd_documents_total %d\n", s.documents.Load())
	counter("mdlogd_document_errors_total", "Documents that failed to parse or evaluate.")
	fmt.Fprintf(&b, "mdlogd_document_errors_total %d\n", s.docErrors.Load())

	if s.store != nil {
		counter("mdlogd_store_saves_total", "Registry snapshots written to the persistent store.")
		fmt.Fprintf(&b, "mdlogd_store_saves_total %d\n", s.storeSaves.Load())
		counter("mdlogd_store_errors_total", "Registry snapshot writes that failed.")
		fmt.Fprintf(&b, "mdlogd_store_errors_total %d\n", s.storeErrors.Load())
		counter("mdlogd_store_reloads_total", "Registry reloads from the store (SIGHUP).")
		fmt.Fprintf(&b, "mdlogd_store_reloads_total %d\n", s.reloads.Load())
	}
	if s.docs != nil {
		cs := s.docs.stats()
		gauge("mdlogd_doc_cache_entries", "Distinct documents in the content-hash dedup cache.",
			strconv.Itoa(cs.entries))
		gauge("mdlogd_doc_cache_max_entries", "Dedup cache capacity.",
			strconv.Itoa(cs.max))
		counter("mdlogd_doc_cache_hits_total", "Documents served from the dedup cache.")
		fmt.Fprintf(&b, "mdlogd_doc_cache_hits_total %d\n", cs.hits)
		counter("mdlogd_doc_cache_misses_total", "Documents parsed fresh into the dedup cache.")
		fmt.Fprintf(&b, "mdlogd_doc_cache_misses_total %d\n", cs.misses)
		counter("mdlogd_doc_cache_evictions_total", "Documents evicted from the dedup cache.")
		fmt.Fprintf(&b, "mdlogd_doc_cache_evictions_total %d\n", cs.evictions)
	}
	if s.shardN > 0 {
		gauge("mdlogd_shard_index", "This worker's shard index.",
			strconv.Itoa(s.shardIdx))
		gauge("mdlogd_shard_count", "Workers in the shard fleet.",
			strconv.Itoa(s.shardN))
		counter("mdlogd_shard_misrouted_total", "Documents rejected by the shard-ownership guard (421).")
		fmt.Fprintf(&b, "mdlogd_shard_misrouted_total %d\n", s.shardMisrouted.Load())
	}

	sessions := s.sessionsJSON()
	gauge("mdlogd_sessions", "Live document sessions.",
		strconv.Itoa(sessions["count"].(int)))
	gauge("mdlogd_max_sessions", "Session capacity (<= 0: unbounded).",
		strconv.Itoa(s.sessions.max))
	counter("mdlogd_session_rejected_total", "Session opens shed at capacity.")
	fmt.Fprintf(&b, "mdlogd_session_rejected_total %d\n", s.sessionRejected.Load())
	counter("mdlogd_session_edits_total", "Edit operations applied to live sessions.")
	fmt.Fprintf(&b, "mdlogd_session_edits_total %d\n", s.sessionEdits.Load())
	counter("mdlogd_session_inc_applies_total", "Delta windows applied by incremental maintainers (live sessions).")
	fmt.Fprintf(&b, "mdlogd_session_inc_applies_total %d\n", sessions["inc_applies"].(int))
	counter("mdlogd_session_inc_fallback_total", "Delta windows handled by full re-evaluation (live sessions).")
	fmt.Fprintf(&b, "mdlogd_session_inc_fallback_total %d\n", sessions["inc_fallback"].(int))

	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_engine Plan engine by wrapper (value is always 1; the engine is the label).\n# TYPE mdlogd_wrapper_engine gauge\n")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_engine{wrapper=%q,engine=%q} 1\n", st.wr.Name, st.wr.Query.EngineName())
	}
	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_version Installs under this wrapper name (survives restarts with a data dir).\n# TYPE mdlogd_wrapper_version gauge\n")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_version{wrapper=%q} %d\n", st.wr.Name, st.wr.Version)
	}
	counter("mdlogd_wrapper_runs_total", "Query runs by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_runs_total{wrapper=%q} %d\n", st.wr.Name, st.query.Runs)
	}
	counter("mdlogd_wrapper_fused_runs_total", "Runs served by a fused all-wrapper pass, by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_fused_runs_total{wrapper=%q} %d\n", st.wr.Name, st.query.FusedRuns)
	}
	counter("mdlogd_wrapper_subsumed_runs_total", "Runs answered purely by projection from an equivalent wrapper's relations, by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_subsumed_runs_total{wrapper=%q} %d\n", st.wr.Name, st.query.SubsumedRuns)
	}
	counter("mdlogd_wrapper_facts_total", "Result facts by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_facts_total{wrapper=%q} %d\n", st.wr.Name, st.query.Facts)
	}
	counter("mdlogd_wrapper_spans_total", "Span tuples extracted by wrapper (spanner wrappers only).")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_spans_total{wrapper=%q} %d\n", st.wr.Name, st.query.Spans)
	}
	counter("mdlogd_wrapper_cache_hits_total", "Runs served from the result memo, by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_cache_hits_total{wrapper=%q} %d\n", st.wr.Name, st.query.CacheHits)
	}
	counter("mdlogd_wrapper_eval_seconds_total", "Engine time by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_eval_seconds_total{wrapper=%q} %s\n", st.wr.Name, seconds(st.query.Eval))
	}
	counter("mdlogd_wrapper_materialize_seconds_total", "Materialization time by wrapper.")
	for _, st := range stats {
		fmt.Fprintf(&b, "mdlogd_wrapper_materialize_seconds_total{wrapper=%q} %s\n", st.wr.Name, seconds(st.query.Materialize))
	}
	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_cache_trees Documents with cached state, by wrapper.\n# TYPE mdlogd_wrapper_cache_trees gauge\n")
	for _, st := range stats {
		if st.cached {
			fmt.Fprintf(&b, "mdlogd_wrapper_cache_trees{wrapper=%q} %d\n", st.wr.Name, st.cache.Trees)
		}
	}
	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_cache_results Memoized (query, tree) results, by wrapper.\n# TYPE mdlogd_wrapper_cache_results gauge\n")
	for _, st := range stats {
		if st.cached {
			fmt.Fprintf(&b, "mdlogd_wrapper_cache_results{wrapper=%q} %d\n", st.wr.Name, st.cache.Results)
		}
	}
	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_rules_before Datalog rules before compile-time optimization, by wrapper.\n# TYPE mdlogd_wrapper_rules_before gauge\n")
	for _, st := range stats {
		if st.opt.RulesBefore > 0 {
			fmt.Fprintf(&b, "mdlogd_wrapper_rules_before{wrapper=%q} %d\n", st.wr.Name, st.opt.RulesBefore)
		}
	}
	fmt.Fprintf(&b, "# HELP mdlogd_wrapper_rules_after Datalog rules in the prepared plan, by wrapper.\n# TYPE mdlogd_wrapper_rules_after gauge\n")
	for _, st := range stats {
		if st.opt.RulesBefore > 0 {
			fmt.Fprintf(&b, "mdlogd_wrapper_rules_after{wrapper=%q} %d\n", st.wr.Name, st.opt.RulesAfter)
		}
	}

	if plans, fuseRep, ok := s.subsumePlans(); ok {
		fmt.Fprintf(&b, "# HELP mdlogd_wrapper_subsume_class Equivalence class of the wrapper in the fused all-wrapper set (wrappers sharing a class share answers).\n# TYPE mdlogd_wrapper_subsume_class gauge\n")
		for _, st := range stats {
			if p, have := plans[st.wr.Name]; have && p.Fused {
				fmt.Fprintf(&b, "mdlogd_wrapper_subsume_class{wrapper=%q} %d\n", st.wr.Name, p.Class)
			}
		}
		fmt.Fprintf(&b, "# HELP mdlogd_wrapper_subsumed Whether the wrapper is served by projection from an equivalent wrapper (1) or evaluates its own rules (0).\n# TYPE mdlogd_wrapper_subsumed gauge\n")
		for _, st := range stats {
			if p, have := plans[st.wr.Name]; have && p.Fused {
				v := 0
				if p.Subsumed {
					v = 1
				}
				fmt.Fprintf(&b, "mdlogd_wrapper_subsumed{wrapper=%q} %d\n", st.wr.Name, v)
			}
		}
		gauge("mdlogd_fused_rules", "Rules in the fused all-wrapper program after dedup and subsumption.",
			strconv.Itoa(fuseRep.RulesOut))
		gauge("mdlogd_fused_rules_in", "Total member rules entering registry-wide fusion.",
			strconv.Itoa(fuseRep.RulesIn))
		gauge("mdlogd_subsume_checked", "Visible predicates fingerprinted by the containment checker at the last registry compile.",
			strconv.Itoa(fuseRep.SubsumeChecked))
		gauge("mdlogd_subsume_merged", "Visible predicates proven equivalent and merged at the last registry compile.",
			strconv.Itoa(fuseRep.SubsumedPreds))
		gauge("mdlogd_subsume_unknown", "Visible predicates the containment checker declined (fall back to evaluation).",
			strconv.Itoa(fuseRep.SubsumeUnknown))
		gauge("mdlogd_subsume_check_seconds", "Containment-checker time at the last registry compile.",
			seconds(time.Duration(fuseRep.CheckNs)))
	}

	counter("mdlogd_runs_total", "Query runs across all wrappers.")
	fmt.Fprintf(&b, "mdlogd_runs_total %d\n", total.Runs)
	counter("mdlogd_spans_total", "Span tuples extracted across all wrappers.")
	fmt.Fprintf(&b, "mdlogd_spans_total %d\n", total.Spans)
	counter("mdlogd_eval_seconds_total", "Engine time across all wrappers.")
	fmt.Fprintf(&b, "mdlogd_eval_seconds_total %s\n", seconds(total.Eval))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
