package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
)

// This file measures the document substrate itself — the arena
// (struct-of-arrays) tree representation and the streaming HTML
// tokenizer — at growing document sizes, and compares it with the
// pointer-per-node baseline pipeline it replaced. cmd/benchtables
// -treesize serializes the same measurements as BENCH_treesize.json
// so CI archives a perf trajectory across PRs.

// TreeSizePoint is one document-size measurement. All figures are
// nanoseconds per node, so linearity shows as flat columns.
type TreeSizePoint struct {
	// Nodes is the actual document size, |dom|.
	Nodes int `json:"nodes"`
	// ParseNsPerNode: streaming parse (html.ParseArena) from an
	// in-memory reader into the arena.
	ParseNsPerNode float64 `json:"parse_ns_per_node"`
	// MaterializeNsPerNode: τ_ur TreeDB materialization off the arena
	// columns (the generic-engine substrate).
	MaterializeNsPerNode float64 `json:"materialize_ns_per_node"`
	// SelectNsPerNode: full pipeline parse → Nav → Theorem 4.2 plan
	// run → selected-node extraction.
	SelectNsPerNode float64 `json:"select_ns_per_node"`
	// PointerParseNsPerNode / PointerSelectNsPerNode: the same
	// measurements through the pointer-per-node baseline
	// (html.ParseNodes + eval.NewNavFromNodes).
	PointerParseNsPerNode  float64 `json:"pointer_parse_ns_per_node"`
	PointerSelectNsPerNode float64 `json:"pointer_select_ns_per_node"`
	// SelectSpeedup is PointerSelect / Select, end to end.
	SelectSpeedup float64 `json:"select_speedup"`
	// EngineSelectNsPerNode / BitmapSelectNsPerNode isolate the engine:
	// the prepared plan runs over a pre-built Nav (no parse, no
	// materialization), linear vs bitmap. The end-to-end select columns
	// are parse-dominated, so engine work only shows here.
	EngineSelectNsPerNode float64 `json:"engine_select_ns_per_node"`
	BitmapSelectNsPerNode float64 `json:"bitmap_select_ns_per_node"`
	// BitmapSelectSpeedup is EngineSelect / BitmapSelect — the
	// engine-only gain of the columnar bitmap pipeline.
	BitmapSelectSpeedup float64 `json:"bitmap_select_speedup"`
}

// treeSizeProgram is the fixed query of the substrate benchmark: td
// cells whose first child is a bold price.
func treeSizeProgram() *datalog.Program {
	return datalog.MustParseProgram(`
q(X) :- label_td(X), firstchild(X,Y), label_b(Y).
?- q.
`)
}

// TreeSizeData measures the substrate at 1k / 10k / 100k nodes.
func TreeSizeData(cfg Config) []TreeSizePoint {
	sizes := []int{1000, 10000, 100000}
	if cfg.Quick {
		sizes = []int{1000, 10000}
	}
	pl, err := eval.NewPlan(treeSizeProgram())
	if err != nil {
		panic(err)
	}
	bp, err := eval.NewBitmapPlan(treeSizeProgram())
	if err != nil {
		panic(err)
	}
	var out []TreeSizePoint
	for _, target := range sizes {
		rng := rand.New(rand.NewSource(52))
		src := html.ProductListing(rng, target/9)
		a, err := html.ParseArena(strings.NewReader(src))
		if err != nil {
			panic(err)
		}
		n := a.Len()
		doc := html.ParseNodes(src)

		perNode := func(f func()) float64 {
			return float64(timeIt(f).Nanoseconds()) / float64(n)
		}
		pt := TreeSizePoint{Nodes: n}
		pt.ParseNsPerNode = perNode(func() {
			if _, err := html.ParseArena(strings.NewReader(src)); err != nil {
				panic(err)
			}
		})
		pt.MaterializeNsPerNode = perNode(func() {
			eval.TreeDB(doc)
		})
		pt.SelectNsPerNode = perNode(func() {
			a, err := html.ParseArena(strings.NewReader(src))
			if err != nil {
				panic(err)
			}
			db, err := pl.Run(eval.NavOf(a), nil)
			if err != nil {
				panic(err)
			}
			db.UnarySet("q")
		})
		pt.PointerParseNsPerNode = perNode(func() {
			html.ParseNodes(src)
		})
		pt.PointerSelectNsPerNode = perNode(func() {
			doc := html.ParseNodes(src)
			db, err := pl.Run(eval.NewNavFromNodes(doc), nil)
			if err != nil {
				panic(err)
			}
			db.UnarySet("q")
		})
		pt.SelectSpeedup = pt.PointerSelectNsPerNode / pt.SelectNsPerNode
		nav := eval.NavOf(a)
		pt.EngineSelectNsPerNode = perNode(func() {
			db, err := pl.Run(nav, nil)
			if err != nil {
				panic(err)
			}
			db.UnarySet("q")
		})
		pt.BitmapSelectNsPerNode = perNode(func() {
			db, err := bp.Run(nav, nil)
			if err != nil {
				panic(err)
			}
			db.UnarySet("q")
		})
		pt.BitmapSelectSpeedup = pt.EngineSelectNsPerNode / pt.BitmapSelectNsPerNode
		out = append(out, pt)
	}
	return out
}

// TreeSize renders TreeSizeData as an experiment table (EXT-TREESIZE).
func TreeSize(cfg Config) Table {
	t := Table{
		ID:    "EXT-TREESIZE",
		Title: "Arena substrate: parse / materialize / Select ns-per-node vs document size",
		Headers: []string{"nodes", "parse ns/node", "treedb ns/node", "select ns/node",
			"ptr parse ns/node", "ptr select ns/node", "select speedup",
			"engine ns/node", "bitmap ns/node", "bitmap speedup"},
		Notes: "Wide product-listing documents. parse = streaming html.ParseArena; treedb = τ_ur TreeDB off the " +
			"arena columns; select = parse → Nav → Theorem 4.2 plan → node ids, end to end. " +
			"ptr columns run the pointer-per-node baseline (html.ParseNodes + eval.NewNavFromNodes). " +
			"engine/bitmap columns isolate plan execution over a pre-built Nav (the end-to-end select " +
			"column is parse-dominated): linear Horn propagation vs the columnar bitset pipeline. " +
			"Flat ns/node columns demonstrate linearity; cmd/benchtables -treesize emits these rows as JSON.",
	}
	for _, pt := range TreeSizeData(cfg) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Nodes),
			fmt.Sprintf("%.0f", pt.ParseNsPerNode),
			fmt.Sprintf("%.0f", pt.MaterializeNsPerNode),
			fmt.Sprintf("%.0f", pt.SelectNsPerNode),
			fmt.Sprintf("%.0f", pt.PointerParseNsPerNode),
			fmt.Sprintf("%.0f", pt.PointerSelectNsPerNode),
			fmt.Sprintf("%.2fx", pt.SelectSpeedup),
			fmt.Sprintf("%.1f", pt.EngineSelectNsPerNode),
			fmt.Sprintf("%.1f", pt.BitmapSelectNsPerNode),
			fmt.Sprintf("%.2fx", pt.BitmapSelectSpeedup),
		})
	}
	return t
}
