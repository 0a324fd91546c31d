package main

import (
	"context"
	"strings"
	"time"

	mdlog "mdlog"
)

// fillProbes measures, on small generated inputs, every time-valued
// per-layer metric that the workload's own replay left at zero (a layer
// the workload does not exercise), so every traced run reports a
// measured value for every layer. Probe spans have request id 0.
func fillProbes(tr *tracer, seed int64, sc scale, out map[string]float64) error {
	setIfZero := func(name string, v float64) {
		if out[name] == 0 {
			out[name] = v
		}
	}
	fleet, err := crawlFleet()
	if err != nil {
		return err
	}
	for _, w := range fleet {
		if out[compileMetric(w.Lang)] != 0 {
			continue
		}
		var ms []float64
		for rep := 0; rep < 3; rep++ {
			_, d := tr.timed(0, 0, frontEnd(w.Lang)+".compile", 1, func() { _, err = w.served() })
			if err != nil {
				return err
			}
			ms = append(ms, float64(d)/1e6)
		}
		out[compileMetric(w.Lang)] = median(ms)
	}
	cf, err := compileFleet(fleet)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var pages [3]*mdlog.Tree
	for c, name := range classNames {
		p := genPage(seed, c, 0, sc.nodes[c])
		var t *mdlog.Tree
		_, d := tr.timed(0, 0, "html.parse", 0, func() { t, err = mdlog.ParseHTMLReader(strings.NewReader(p.src)) })
		if err != nil {
			return err
		}
		pages[c] = t
		n := float64(t.Size())
		setIfZero("html.parse_ns_per_node."+name, float64(d)/n)
		if out["eval.engine_ns_per_node."+name] == 0 {
			var sum mdlog.Stats
			tr.timed(0, 0, "mdlog.queryset.run", int64(t.Size()), func() {
				for _, r := range cf.set.Run(ctx, t) {
					sum.Add(r.Stats)
				}
			})
			cf.set.Cache().Forget(t)
			setIfZero("eval.materialize_ns_per_node."+name, float64(sum.Materialize)/n)
			setIfZero("eval.engine_ns_per_node."+name, float64(sum.Eval)/n)
		}
		if c != 1 && out["eval.treedb_ns_per_node."+name] == 0 {
			_, d := tr.timed(0, 0, "eval.treedb", int64(t.Size()), func() { mdlog.TreeDB(t) })
			out["eval.treedb_ns_per_node."+name] = float64(d) / n
		}
	}
	if out["span.enum_ns_per_row"] == 0 {
		q, err := wrapperDef{Lang: mdlog.LangSpanner, Source: pricesSpanner}.served()
		if err != nil {
			return err
		}
		_, st, err := q.SpansStats(ctx, pages[1])
		if err != nil {
			return err
		}
		_, d := tr.timed(0, 0, "span.enumerate", st.Spans, func() { _, _, err = q.SpansStats(ctx, pages[1]) })
		if err != nil {
			return err
		}
		setIfZero("span.rows_per_request", float64(st.Spans))
		if st.Spans > 0 {
			out["span.enum_ns_per_row"] = float64(d) / float64(st.Spans)
		}
	}
	if out["tree.mutate_ns_per_op"] == 0 || out["eval.incremental.run_ms.small"] == 0 || out["eval.incremental.run_ms.large"] == 0 {
		return probeLive(tr, seed, sc, out)
	}
	return nil
}

// probeLive runs a short edit script on a live document of live-edit's
// size with its fleet, for the incremental metrics of workloads that
// keep no live document (or whose replay saw no batch of a size). It
// sets only metrics still at zero.
func probeLive(tr *tracer, seed int64, sc scale, out map[string]float64) error {
	setIfZero := func(name string, v float64) {
		if out[name] == 0 {
			out[name] = v
		}
	}
	fleet, err := incrementalFleet()
	if err != nil {
		return err
	}
	inc, err := compileFleet(fleet)
	if err != nil {
		return err
	}
	full, err := compileFleet(fleet)
	if err != nil {
		return err
	}
	t := mdlog.ParseHTML(genPage(seed, 0, 0, sc.liveNodes).src)
	gen, err := newEditGen(seed, t)
	if err != nil {
		return err
	}
	doc := mdlog.NewDocument(t)
	ctx := context.Background()
	inc.set.RunIncremental(ctx, doc)
	var incMs, fullMs [2][]float64
	var mutate time.Duration
	ops := 0
	for i := 0; i < 20; i++ {
		s := gen.nextStep()
		var applyErr error
		_, dm := tr.timed(0, 0, "tree.mutate", int64(len(s.ops)), func() {
			for _, op := range s.ops {
				if applyErr = op.apply(doc); applyErr != nil {
					return
				}
			}
		})
		if applyErr != nil {
			return applyErr
		}
		mutate += dm
		ops += len(s.ops)
		_, di := tr.timed(0, 0, "eval.incremental", int64(s.nodes), func() { inc.set.RunIncremental(ctx, doc) })
		snap := doc.Snapshot()
		_, df := tr.timed(0, 0, "eval.full", int64(s.nodes), func() { full.set.Run(ctx, snap) })
		full.set.Cache().Forget(snap)
		cls := 0
		if s.large {
			cls = 1
		}
		incMs[cls] = append(incMs[cls], float64(di)/1e6)
		fullMs[cls] = append(fullMs[cls], float64(df)/1e6)
	}
	setIfZero("tree.mutate_ns_per_op", float64(mutate)/float64(ops))
	for cls, name := range []string{"small", "large"} {
		setIfZero("eval.incremental.run_ms."+name, median(incMs[cls]))
		setIfZero("eval.incremental.vs_full."+name, median(incMs[cls])/median(fullMs[cls]))
	}
	ds := doc.Stats()
	setIfZero("eval.incremental.overdeleted", float64(ds.Inc.Overdeleted))
	setIfZero("eval.incremental.rederived", float64(ds.Inc.Rederived))
	setIfZero("eval.incremental.fallbacks", float64(ds.Inc.Fallbacks))
	if ds.Inc.Overdeleted > 0 {
		setIfZero("eval.incremental.rederive_ratio", float64(ds.Inc.Rederived)/float64(ds.Inc.Overdeleted))
	}
	return nil
}
