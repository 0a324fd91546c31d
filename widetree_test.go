package mdlog

// Differential coverage for long sibling lists. The random-tree
// fuzzer rarely builds a node with thousands of children, yet that is
// where descendant recursion runs one semi-naive round per sibling:
// generated product listings and news indexes put every row of a table
// or list under one parent. The three root-recursive crawl wrappers
// must select the same nodes on the bitmap and linear engines there,
// both from scratch and after a live-document edit batch.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mdlog/internal/html"
	"mdlog/internal/tree"
)

// wrapperShape is a wrapper with the generated page it selects nodes
// on.
type wrapperShape struct {
	name string
	lang Language
	src  string
	pred string
	page string
}

// rootRecursiveShapes are the root-recursive crawl wrappers: XPath's
// //, caterpillar's child* and Elog's subelem. They select on product
// listings; newsShapes are their twins for news indexes, whose long
// sibling lists are the headline lists.
var (
	rootRecursiveShapes = []wrapperShape{
		{"xpath", LangXPath, `//td[b]`, "", "ProductListing"},
		{"caterpillar", LangCaterpillar, `child*.label_td.child.label_b.(child^-1).label_td`, "", "ProductListing"},
		{"elog", LangElog, `item(x) :- root(x0), subelem("html.body.table.tr", x0, x).
f(x) :- item(x0), subelem("td.b", x0, x).`, "f", "ProductListing"},
	}
	newsShapes = []wrapperShape{
		{"xpath-news", LangXPath, `//li[span]`, "", "NewsIndex"},
		{"caterpillar-news", LangCaterpillar, `child*.label_li.child.label_span.(child^-1).label_li`, "", "NewsIndex"},
		{"elog-news", LangElog, `item(x) :- root(x0), subelem("html.body.div.div.ul.li", x0, x).
f(x) :- item(x0), subelem("a", x0, x).`, "f", "NewsIndex"},
	}
)

func compileShapes(t *testing.T, shapes []wrapperShape, e Engine) []*CompiledQuery {
	t.Helper()
	qs := make([]*CompiledQuery, len(shapes))
	for i, s := range shapes {
		opts := []Option{WithEngine(e), WithoutCache()}
		if s.pred != "" {
			opts = append(opts, WithQueryPred(s.pred))
		}
		q, err := Compile(s.src, s.lang, opts...)
		if err != nil {
			t.Fatalf("%s on %v: %v", s.name, e, err)
		}
		qs[i] = q
	}
	return qs
}

// widePage generates a product listing or news index of about nodes
// nodes.
func widePage(gen string, nodes int) string {
	rng := rand.New(rand.NewSource(int64(nodes)))
	if gen == "ProductListing" {
		return html.ProductListing(rng, nodes/9)
	}
	return html.NewsIndex(rng, 6, nodes/30)
}

func TestWideTreesBitmapMatchesLinear(t *testing.T) {
	ctx := context.Background()
	shapes := append(slices.Clone(rootRecursiveShapes), newsShapes...)
	bitmap, linear := compileShapes(t, shapes, EngineBitmap), compileShapes(t, shapes, EngineLinear)
	sizes := []int{10000, 100000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, gen := range []string{"ProductListing", "NewsIndex"} {
		for _, nodes := range sizes {
			doc, err := ParseHTMLReader(strings.NewReader(widePage(gen, nodes)))
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range shapes {
				want, err := linear[i].Select(ctx, doc)
				if err != nil {
					t.Fatalf("%s on %s/%d: linear: %v", s.name, gen, nodes, err)
				}
				got, err := bitmap[i].Select(ctx, doc)
				if err != nil {
					t.Fatalf("%s on %s/%d: bitmap: %v", s.name, gen, nodes, err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s on %s/%d: bitmap selects %d nodes, linear %d", s.name, gen, doc.Size(), len(got), len(want))
				}
				if gen == s.page && len(want) == 0 {
					t.Errorf("%s on %s/%d: selects nothing; the check is vacuous", s.name, gen, nodes)
				}
			}
		}
	}
}

// TestWideTreeIncrementalBitmapMatchesLinear runs one edit batch on a
// live product listing — rows inserted into and removed from the long
// table — and checks the bitmap-fused incremental results (DRed shares
// the bitmap engine's semi-naive rounds) against the linear engine on
// the edited snapshot.
func TestWideTreeIncrementalBitmapMatchesLinear(t *testing.T) {
	ctx := context.Background()
	tr, err := ParseHTMLReader(strings.NewReader(widePage("ProductListing", 10000)))
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tr)
	set, err := NewQuerySet(compileShapes(t, rootRecursiveShapes, EngineBitmap)...)
	if err != nil {
		t.Fatal(err)
	}
	if set.FusedLen() != len(rootRecursiveShapes) {
		t.Fatalf("fused %d of %d members", set.FusedLen(), len(rootRecursiveShapes))
	}
	before := set.RunIncremental(ctx, doc) // builds the maintained state

	a := doc.Tree().Arena()
	table := -1
	for _, v := range doc.LiveNodes() {
		if a.LabelName(int32(v)) == "table" {
			table = v
			break
		}
	}
	if table < 0 {
		t.Fatal("no table in the product listing")
	}
	row := func(i int) *tree.Node {
		return tree.New("tr", tree.New("td"), tree.New("td", tree.New("b", tree.NewText(fmt.Sprintf("$%d.00", i)))))
	}
	// Four rows with a td(b) cell go in and one comes out.
	for i, pos := range []int{0, 1, 500, 1000} {
		if _, err := doc.InsertSubtree(table, pos, row(i)); err != nil {
			t.Fatal(err)
		}
	}
	rows := 0
	for c := a.FirstChild[table]; c >= 0; c = a.NextSibling[c] {
		if rows++; rows == 700 {
			if err := doc.RemoveSubtree(int(c)); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	pre := a.LivePreorder()
	snap := doc.Snapshot()
	linear := compileShapes(t, rootRecursiveShapes, EngineLinear)
	for i, res := range set.RunIncremental(ctx, doc) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
		ids, err := linear[i].Select(ctx, snap)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(ids))
		for j, v := range ids {
			want[j] = int(pre[v])
		}
		sort.Ints(want)
		if !slices.Equal(res.IDs, want) {
			t.Errorf("%s after the edit batch: incremental bitmap selects %d nodes, linear on the snapshot %d",
				rootRecursiveShapes[i].name, len(res.IDs), len(want))
		}
		if got := len(want) - len(before[i].IDs); got != 3 {
			t.Errorf("%s: the edit batch changed the selection by %d nodes, want +3", rootRecursiveShapes[i].name, got)
		}
	}
}
