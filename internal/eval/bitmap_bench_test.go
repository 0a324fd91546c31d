package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/html"
)

// BenchmarkBitmapSelectLarge runs the td-with-bold-child select
// program on a ~100k-node product listing with a prepared bitmap plan
// over a pre-built Nav: the engine alone, without parse or Nav build
// (mdbench's eval.engine_ns_per_node.100k is the served form).
func BenchmarkBitmapSelectLarge(b *testing.B) {
	p := datalog.MustParseProgram(`
q(X) :- label_td(X), firstchild(X,Y), label_b(Y).
?- q.
`)
	bp, err := NewBitmapPlan(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	src := html.ProductListing(rng, 100000/9)
	a, err := html.ParseArena(strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	nav := NavOf(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := bp.Run(nav, nil)
		if err != nil {
			b.Fatal(err)
		}
		db.UnarySet("q")
	}
}

// BenchmarkBitmapRecursiveWide runs XPath //td[b] (the compiled
// descendant recursion of xpathTdB) on product listings of ~1k, ~10k
// and ~100k nodes with both grounding engines over a pre-built Nav.
// The listing's table is one long sibling list, so the recursion takes
// a semi-naive round per row; ns/node must stay flat as pages grow.
func BenchmarkBitmapRecursiveWide(b *testing.B) {
	p := datalog.MustParseProgram(xpathTdB)
	bp, err := NewBitmapPlan(p)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := NewPlan(p)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		run  func(*Nav, []string) (*datalog.Database, error)
	}{{"bitmap", bp.Run}, {"linear", pl.Run}}
	for _, nodes := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(52))
		a, err := html.ParseArena(strings.NewReader(html.ProductListing(rng, nodes/9)))
		if err != nil {
			b.Fatal(err)
		}
		nav := NavOf(a)
		for _, e := range engines {
			b.Run(fmt.Sprintf("%s/%dk", e.name, nodes/1000), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := e.run(nav, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nav.Dom()), "ns/node")
			})
		}
	}
}
