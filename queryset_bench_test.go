package mdlog_test

// Fusion benchmark: N wrappers evaluated one by one against one fused
// QuerySet pass over the same document, with the rule counts of both
// paths reported beside the times.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// querySetFamily builds a realistic wrapper fleet of size n over the
// product page family: Elog⁻ field extractors sharing the table-row
// chain and differing in their leaf patterns, interleaved with XPath
// wrappers — the deployment shape where many tenants watch the same
// pages. Members compile for the linear engine.
func querySetFamily(n int) []mdlog.SetSpec {
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

// BenchmarkQuerySetFused compares 8 wrappers evaluated sequentially
// against one fused QuerySet pass on the same document. rules_seq sums
// the members' prepared plans; rules_fused is the one shared program.
func BenchmarkQuerySetFused(b *testing.B) {
	ctx := context.Background()
	doc := mdlog.ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), 200))
	specs := querySetFamily(8)
	var queries []*mdlog.CompiledQuery
	rulesSeq := 0
	for _, sp := range specs {
		q, err := mdlog.Compile(sp.Source, sp.Lang, append(sp.Options, mdlog.WithoutCache())...)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
		rulesSeq += q.OptStats().RulesAfter
	}
	set, err := mdlog.CompileSet(specs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if err := q.Run(ctx, doc).Err; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(rulesSeq), "rules_seq")
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set.Cache().Forget(doc)
			for _, res := range set.Run(ctx, doc) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
		b.ReportMetric(float64(set.FuseStats().RulesOut), "rules_fused")
	})
}
