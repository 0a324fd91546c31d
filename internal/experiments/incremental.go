package experiments

import (
	"context"
	"fmt"
	"math/rand"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// This file measures the live-document path: maintaining a wrapper's
// result through arena edits (Document + SelectIncremental, DRed
// delta propagation) against the pre-session workflow of reparsing
// the source and re-extracting from scratch on every revision.
// cmd/benchtables -incremental serializes the same measurements as
// BENCH_incremental.json so CI archives the trajectory across PRs.

// IncrementalPoint is one (document size, edit fraction) measurement.
// FullNs and IncNs are per revision: full = reparse + extract, inc =
// apply the edits through the mutation API + incremental extract.
type IncrementalPoint struct {
	// Nodes is the document size before edits, |dom|.
	Nodes int `json:"nodes"`
	// EditFrac is the revision size as a fraction of |dom|.
	EditFrac float64 `json:"edit_frac"`
	// Edits is the resulting number of edit operations per revision.
	Edits int `json:"edits"`
	// FullNs: one revision through the full pipeline — reparse the
	// HTML source, evaluate the compiled wrapper on the fresh tree.
	FullNs int64 `json:"full_ns"`
	// IncNs: one revision through the live-document pipeline — Edits
	// mutations on the Document plus one incremental extract.
	IncNs int64 `json:"inc_ns"`
	// Speedup is FullNs / IncNs.
	Speedup float64 `json:"speedup"`
}

// incrementalQuery is the fixed wrapper of the benchmark — the same
// td-with-bold-price query the substrate benchmark uses, routed
// through the linear engine's DRed maintainer.
const incrementalQuery = `q(X) :- label_td(X), firstchild(X,Y), label_b(Y). ?- q.`

// IncrementalData measures full-vs-incremental revisions at 10k/100k
// nodes (2k/10k under -quick) and 0.1% / 1% / 10% edit fractions.
func IncrementalData(cfg Config) []IncrementalPoint {
	sizes := []int{10000, 100000}
	if cfg.Quick {
		sizes = []int{2000, 10000}
	}
	fracs := []float64{0.001, 0.01, 0.1}
	ctx := context.Background()
	var out []IncrementalPoint
	for _, target := range sizes {
		rng := rand.New(rand.NewSource(53))
		src := html.ProductListing(rng, target/9)
		n := mdlog.ParseHTML(src).Size()

		// Full baseline: every revision reparses the source and
		// re-extracts on the fresh tree (each parse yields a new tree
		// identity, so nothing is served from a memo).
		qFull, err := mdlog.Compile(incrementalQuery, mdlog.LangDatalog, mdlog.WithEngine(mdlog.EngineLinear))
		if err != nil {
			panic(err)
		}
		full := timeIt(func() {
			if _, err := qFull.Select(ctx, mdlog.ParseHTML(src)); err != nil {
				panic(err)
			}
		})

		for _, frac := range fracs {
			k := int(frac * float64(n))
			if k < 1 {
				k = 1
			}
			q, err := mdlog.Compile(incrementalQuery, mdlog.LangDatalog, mdlog.WithEngine(mdlog.EngineLinear))
			if err != nil {
				panic(err)
			}
			doc := mdlog.NewDocument(mdlog.ParseHTML(src))
			sub, err := mdlog.ParseTree("td(b)")
			if err != nil {
				panic(err)
			}
			// Parents come from the original document, which the edit
			// script never removes, so they stay valid across runs.
			parents := doc.LiveNodes()
			prng := rand.New(rand.NewSource(54))
			inserted := make([]int, 0, k)
			// One timed call is two balanced revisions — insert k
			// result-bearing subtrees and extract, then remove them and
			// extract — so the document returns to its original
			// extension and repeated runs measure the same work.
			d := timeIt(func() {
				inserted = inserted[:0]
				for i := 0; i < k; i++ {
					id, err := doc.InsertSubtree(parents[prng.Intn(len(parents))], 0, sub.Root)
					if err != nil {
						panic(err)
					}
					inserted = append(inserted, id)
				}
				if _, err := q.SelectIncremental(ctx, doc); err != nil {
					panic(err)
				}
				for _, id := range inserted {
					if err := doc.RemoveSubtree(id); err != nil {
						panic(err)
					}
				}
				if _, err := q.SelectIncremental(ctx, doc); err != nil {
					panic(err)
				}
			})
			inc := d / 2
			out = append(out, IncrementalPoint{
				Nodes:    n,
				EditFrac: frac,
				Edits:    k,
				FullNs:   full.Nanoseconds(),
				IncNs:    inc.Nanoseconds(),
				Speedup:  float64(full) / float64(inc),
			})
		}
	}
	return out
}

// Incremental renders IncrementalData as an experiment table
// (EXT-INCREMENTAL).
func Incremental(cfg Config) Table {
	t := Table{
		ID:      "EXT-INCREMENTAL",
		Title:   "Incremental maintenance: edit-sized revisions vs full reparse + re-extract",
		Headers: []string{"nodes", "edit frac", "edits/rev", "full ms/rev", "inc ms/rev", "speedup"},
		Notes: "Product-listing documents; wrapper = td cells with a bold first child. " +
			"full = reparse the HTML source and evaluate the compiled wrapper on the fresh tree; " +
			"inc = apply the revision's edits through the Document mutation API and run one " +
			"SelectIncremental (DRed delta propagation seeded from the arena delta). " +
			"Revisions alternate inserting and removing result-bearing subtrees, so both delta " +
			"directions are exercised. cmd/benchtables -incremental emits these rows as JSON.",
	}
	for _, pt := range IncrementalData(cfg) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Nodes),
			fmt.Sprintf("%.1f%%", pt.EditFrac*100),
			fmt.Sprint(pt.Edits),
			fmt.Sprintf("%.3f", float64(pt.FullNs)/1e6),
			fmt.Sprintf("%.3f", float64(pt.IncNs)/1e6),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return t
}
