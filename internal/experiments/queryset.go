package experiments

import (
	"context"
	"fmt"
	"math/rand"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// This file measures EXT-QUERYSET: what fusing N wrappers into one
// QuerySet pass buys over evaluating them sequentially — the
// many-wrappers-one-page serving shape. cmd/benchtables -queryset
// serializes the same measurements as BENCH_queryset.json so CI
// archives the fusion trajectory.

// QuerySetPoint is one fleet size's measurement over the benchmark
// document set.
type QuerySetPoint struct {
	// Wrappers is the fleet size N.
	Wrappers int `json:"wrappers"`
	// Fused is how many members the shared pass covers.
	Fused int `json:"fused"`
	// RulesSequential / RulesFused compare the total prepared-plan
	// rule counts: N independent plans vs the one fused program.
	RulesSequential int `json:"rules_sequential"`
	RulesFused      int `json:"rules_fused"`
	// MergedPreds counts auxiliary predicates shared across members.
	MergedPreds int `json:"merged_preds"`
	// SequentialNs / FusedNs are one full pass over the document set
	// (every wrapper, every document) in nanoseconds, per path.
	SequentialNs float64 `json:"sequential_ns"`
	FusedNs      float64 `json:"fused_ns"`
	// Speedup is SequentialNs / FusedNs.
	Speedup float64 `json:"speedup"`
	// BitmapFusedNs is the same fused pass with every member compiled
	// for the bitmap engine, so the shared evaluation runs as columnar
	// bitset algebra; BitmapSpeedup is SequentialNs / BitmapFusedNs.
	// Fused member count grows with N while the pass stays one scan of
	// the shared columns, so this column scales sublinearly in N.
	BitmapFusedNs float64 `json:"bitmap_fused_ns"`
	BitmapSpeedup float64 `json:"bitmap_speedup"`
}

// QuerySetFamily builds a realistic wrapper fleet of size n over the
// product page family: Elog⁻ field extractors sharing the table-row
// chain and differing in their leaf patterns, interleaved with XPath
// wrappers — the deployment shape where many tenants watch the same
// pages. Members compile for the linear engine (the bitmap columns
// append WithEngine(EngineBitmap)). Exported so BenchmarkQuerySetFused
// measures the identical fleet this experiment does.
func QuerySetFamily(n int) []mdlog.SetSpec {
	leafs := []string{"td.#text", "td.b", "td.b.#text", "td.em", "td.em.#text", "td.a"}
	xpaths := []string{`//td[b]`, `//tr[td]/td`, `//td[em]`, `//table/tr`}
	specs := make([]mdlog.SetSpec, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			specs = append(specs, mdlog.SetSpec{
				Name:    fmt.Sprintf("w%d", i),
				Source:  xpaths[(i/4)%len(xpaths)],
				Lang:    mdlog.LangXPath,
				Options: []mdlog.Option{mdlog.WithEngine(mdlog.EngineLinear)},
			})
			continue
		}
		specs = append(specs, mdlog.SetSpec{
			Name: fmt.Sprintf("w%d", i),
			Source: fmt.Sprintf(`
item(x) :- root(x0), subelem("html.body.table.tr", x0, x).
f(x)    :- item(x0), subelem(%q, x0, x).
`, leafs[i%len(leafs)]),
			Lang:    mdlog.LangElog,
			Options: []mdlog.Option{mdlog.WithEngine(mdlog.EngineLinear), mdlog.WithQueryPred("f")},
		})
	}
	return specs
}

// QuerySetData measures fused vs sequential evaluation for fleets of
// N ∈ {2, 8, 32} wrappers over the benchmark document set. Result
// memos are defeated on both paths (WithoutCache sequentially, Forget
// on the set), so both measure full evaluation.
func QuerySetData(cfg Config) []QuerySetPoint {
	rows := 200
	docsN := 4
	if cfg.Quick {
		rows, docsN = 60, 2
	}
	rng := rand.New(rand.NewSource(48))
	docs := make([]*mdlog.Tree, docsN)
	for i := range docs {
		docs[i] = html.Parse(html.ProductListing(rng, rows))
	}
	ctx := context.Background()

	var out []QuerySetPoint
	for _, n := range []int{2, 8, 32} {
		specs := QuerySetFamily(n)
		queries := make([]*mdlog.CompiledQuery, len(specs))
		rulesSeq := 0
		for i, sp := range specs {
			q, err := mdlog.Compile(sp.Source, sp.Lang,
				append(append([]mdlog.Option{}, sp.Options...), mdlog.WithoutCache())...)
			if err != nil {
				panic(fmt.Sprintf("queryset %s: %v", sp.Name, err))
			}
			queries[i] = q
			rulesSeq += q.OptStats().RulesAfter
		}
		set, err := mdlog.CompileSet(specs)
		if err != nil {
			panic(fmt.Sprintf("queryset N=%d: %v", n, err))
		}
		// The same fleet compiled for the bitmap engine: every fusable
		// member routes through the columnar pipeline, so the shared
		// pass itself runs on bitmaps.
		bitmapSpecs := make([]mdlog.SetSpec, len(specs))
		for i, sp := range specs {
			sp.Options = append(append([]mdlog.Option{}, sp.Options...),
				mdlog.WithEngine(mdlog.EngineBitmap))
			bitmapSpecs[i] = sp
		}
		bset, err := mdlog.CompileSet(bitmapSpecs)
		if err != nil {
			panic(fmt.Sprintf("queryset bitmap N=%d: %v", n, err))
		}
		// Semantics guard: fused and sequential must agree on every
		// member and document, on both fused engines, before timing
		// means anything.
		for _, doc := range docs {
			results := set.Run(ctx, doc)
			bresults := bset.Run(ctx, doc)
			for i, res := range results {
				if res.Err != nil {
					panic(fmt.Sprintf("queryset %s: %v", res.Name, res.Err))
				}
				want, err := queries[i].Select(ctx, doc)
				if err != nil || fmt.Sprint(res.IDs) != fmt.Sprint(want) {
					panic(fmt.Sprintf("queryset %s diverges: %v vs %v (%v)", res.Name, res.IDs, want, err))
				}
				if bres := bresults[i]; bres.Err != nil || fmt.Sprint(bres.IDs) != fmt.Sprint(want) {
					panic(fmt.Sprintf("queryset bitmap %s diverges: %v vs %v (%v)", res.Name, bres.IDs, want, bres.Err))
				}
			}
		}
		rep := set.FuseStats()
		pt := QuerySetPoint{
			Wrappers:        n,
			Fused:           set.FusedLen(),
			RulesSequential: rulesSeq,
			RulesFused:      rep.RulesOut,
			MergedPreds:     rep.MergedPreds,
		}
		pt.SequentialNs = float64(timeIt(func() {
			for _, doc := range docs {
				for _, q := range queries {
					if _, err := q.Assign(ctx, doc); err != nil {
						panic(err)
					}
				}
			}
		}).Nanoseconds())
		pt.FusedNs = float64(timeIt(func() {
			for _, doc := range docs {
				set.Cache().Forget(doc)
				for _, res := range set.Run(ctx, doc) {
					if res.Err != nil {
						panic(res.Err)
					}
				}
			}
		}).Nanoseconds())
		pt.Speedup = pt.SequentialNs / pt.FusedNs
		pt.BitmapFusedNs = float64(timeIt(func() {
			for _, doc := range docs {
				bset.Cache().Forget(doc)
				for _, res := range bset.Run(ctx, doc) {
					if res.Err != nil {
						panic(res.Err)
					}
				}
			}
		}).Nanoseconds())
		pt.BitmapSpeedup = pt.SequentialNs / pt.BitmapFusedNs
		out = append(out, pt)
	}
	return out
}

// QuerySet renders QuerySetData as an experiment table (EXT-QUERYSET).
func QuerySet(cfg Config) Table {
	t := Table{
		ID:    "EXT-QUERYSET",
		Title: "QuerySet fusion: N wrappers, one shared pass per document",
		Headers: []string{"wrappers", "fused", "rules seq", "rules fused", "merged preds",
			"seq ms", "fused ms", "speedup", "bitmap ms", "bitmap speedup"},
		Notes: "Product-page wrapper fleet (Elog⁻ field extractors sharing the row chain + XPath variants) " +
			"over the benchmark document set, result memos defeated on both paths. " +
			"rules seq sums the members' individual prepared plans; rules fused is the one shared program. " +
			"bitmap columns run the identical fused pass on the columnar bitmap engine — growing N adds " +
			"rules to one shared scan, so per-member cost shrinks sublinearly. " +
			"cmd/benchtables -queryset emits these rows as BENCH_queryset.json.",
	}
	for _, pt := range QuerySetData(cfg) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Wrappers), fmt.Sprint(pt.Fused),
			fmt.Sprint(pt.RulesSequential), fmt.Sprint(pt.RulesFused), fmt.Sprint(pt.MergedPreds),
			fmt.Sprintf("%.3f", pt.SequentialNs/1e6), fmt.Sprintf("%.3f", pt.FusedNs/1e6),
			fmt.Sprintf("%.2fx", pt.Speedup),
			fmt.Sprintf("%.3f", pt.BitmapFusedNs/1e6), fmt.Sprintf("%.2fx", pt.BitmapSpeedup),
		})
	}
	return t
}
