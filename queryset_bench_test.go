package mdlog_test

// Benchmark twin of the EXT-QUERYSET experiment: it measures the
// identical wrapper fleet experiments.QuerySetFamily builds, so the
// `go test -bench` numbers and the benchtables -queryset JSON stay
// comparable. Lives in the external test package because
// internal/experiments imports mdlog.

import (
	"context"
	"math/rand"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/experiments"
	"mdlog/internal/html"
)

// BenchmarkQuerySetFused compares N wrappers evaluated sequentially
// against one fused QuerySet pass on the same document (benchtables
// -queryset measures the same fleets across N ∈ {2, 8, 32}).
func BenchmarkQuerySetFused(b *testing.B) {
	ctx := context.Background()
	doc := mdlog.ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), 200))
	specs := experiments.QuerySetFamily(8)
	var queries []*mdlog.CompiledQuery
	for _, sp := range specs {
		q, err := mdlog.Compile(sp.Source, sp.Lang, append(sp.Options, mdlog.WithoutCache())...)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
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
	})
}
