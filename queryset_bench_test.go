package mdlog_test

// Fusion benchmarks: N wrappers evaluated one by one against one fused
// QuerySet pass over the same document, with the rule counts of both
// paths reported beside the times; and the rebuild of a fused set after
// one member changed, as a registry write causes.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
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

// nearDuplicateSpec is near-duplicate v of base shape s, as a registry
// churns them: the base rule padded with copies of its own atoms under
// fresh non-head variables and a dom atom — equivalent to the base, but
// not α-equivalent, so only the containment checker merges them.
func nearDuplicateSpec(name string, s, v int) mdlog.SetSpec {
	bases := [][]string{
		{"firstchild(X,Y)", "label_td(Y)"},
		{"label_td(X)", "firstchild(X,Y)", "label_b(Y)"},
		{"label_tr(X)", "firstchild(X,Y)", "nextsibling(Y,Z)", "label_td(Z)"},
		{"nextsibling(X,Y)", "label_td(Y)", "firstchild(Y,Z)"},
		{"label_td(X)", "child(X,Y)", "label_em(Y)"},
		{"label_tr(X)", "child(X,Y)", "label_td(Y)"},
	}
	base := bases[s%len(bases)]
	body := append([]string{}, base...)
	// The digits of v in base 3 are per-atom copy counts.
	for j, atom := range base {
		for m := 0; m < v%3; m++ {
			body = append(body, strings.NewReplacer("Y", fmt.Sprintf("Y%d%d", j, m), "Z", fmt.Sprintf("Z%d%d", j, m)).Replace(atom))
		}
		v /= 3
	}
	if len(body) > len(base) {
		body = append(body, "dom(X)")
	}
	return mdlog.SetSpec{Name: name, Lang: mdlog.LangDatalog, Source: "q(X) :- " + strings.Join(body, ", ") + ". ?- q."}
}

// BenchmarkQuerySetRebuild rebuilds a fused 24-member near-duplicate
// fleet after replacing one member with a freshly compiled variant, as
// mdlogd does on the first extract after a wrapper PUT. Compiling the
// replacement is not timed. unfolded/op counts the members whose UCQ
// signatures a rebuild computed.
func BenchmarkQuerySetRebuild(b *testing.B) {
	const n = 24
	compile := func(sp mdlog.SetSpec) *mdlog.CompiledQuery {
		q, err := mdlog.Compile(sp.Source, sp.Lang, sp.Options...)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	members := make([]mdlog.NamedQuery, n)
	for i := range members {
		sp := nearDuplicateSpec(fmt.Sprintf("m%02d", i), i, i/6)
		members[i] = mdlog.NamedQuery{Name: sp.Name, Query: compile(sp)}
	}
	if _, err := mdlog.NewNamedQuerySet(members...); err != nil {
		b.Fatal(err)
	}
	unfolded := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		slot := i % n
		members[slot].Query = compile(nearDuplicateSpec(members[slot].Name, slot, i%27))
		b.StartTimer()
		set, err := mdlog.NewNamedQuerySet(members...)
		if err != nil {
			b.Fatal(err)
		}
		unfolded += set.FuseStats().Unfolded
	}
	b.ReportMetric(float64(unfolded)/float64(b.N), "unfolded/op")
}
