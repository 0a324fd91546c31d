package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// live-edit: one ~10k-node product listing is opened as a live
// document; one client loops PATCH (an edit batch) then
// POST /documents/{id}/extractall. Nine batches in ten touch a handful
// of nodes (SetText/SetAttr plus one row inserted or removed); one in
// ten replaces ~10% of the rows.

const (
	liveDoc = "live"
	// rowTerm is an inserted product row; its nodes take consecutive
	// arena ids in preorder, so the price text is root+5.
	rowTerm      = "tr(td(#text),td(b(#text)),td(em(#text)))"
	rowNodes     = 9
	rowPriceText = 5
	// sampleEvery spaces the steps whose results the oracle recomputes
	// from scratch (plus the first and the last step).
	sampleEvery = 32
	// sessionSteps is how many batches one session serves before the
	// client re-opens it. Removed rows stay in the arena as dead rows, so
	// a session grows by ~50 rows a batch; without re-opening, a run's
	// cost per step would depend on how many steps it had already done.
	sessionSteps = 200
)

// patchOp mirrors the daemon's PATCH op.
type patchOp struct {
	Op     string `json:"op"`
	Parent int    `json:"parent,omitempty"`
	Pos    int    `json:"pos,omitempty"`
	Term   string `json:"term,omitempty"`
	Node   int    `json:"node,omitempty"`
	Text   string `json:"text,omitempty"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
}

// apply performs the op on a local replica.
func (op patchOp) apply(d *mdlog.Document) error {
	switch op.Op {
	case "insert":
		sub, err := mdlog.ParseTree(op.Term)
		if err != nil {
			return err
		}
		_, err = d.InsertSubtree(op.Parent, op.Pos, sub.Root)
		return err
	case "remove":
		return d.RemoveSubtree(op.Node)
	case "settext":
		return d.SetText(op.Node, op.Text)
	case "setattr":
		return d.SetAttr(op.Node, op.Key, op.Value)
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

type liveRow struct{ tr, price int }

type editStep struct {
	index    int
	large    bool
	ops      []patchOp
	inserted []int // predicted arena ids of inserted rows
	nodes    int   // live nodes after the batch
}

// editGen yields the seeded edit script. It tracks the live rows and
// the next arena id itself, so generating a step needs no document.
// Batches are stratified: exactly one large batch per 10 steps.
type editGen struct {
	rng   *rand.Rand
	table int
	rows  []liveRow
	next  int
	live  int
	step  int
	large []bool
}

func newEditGen(seed int64, t *mdlog.Tree) (*editGen, error) {
	g := &editGen{rng: rand.New(rand.NewSource(seed)), table: -1, next: t.Size(), live: t.Size()}
	for _, n := range t.Nodes {
		if n.Label == "table" && g.table < 0 {
			g.table = n.ID
		}
		if n.Label != "tr" || n.Attrs["class"] != "item" || len(n.Children) < 2 {
			continue
		}
		b := n.Children[1].FirstChild()
		if b == nil || b.FirstChild() == nil {
			continue
		}
		g.rows = append(g.rows, liveRow{tr: n.ID, price: b.FirstChild().ID})
	}
	if g.table < 0 || len(g.rows) < 20 {
		return nil, fmt.Errorf("live document has no product table")
	}
	return g, nil
}

func (g *editGen) price() string {
	return fmt.Sprintf("$%d.%02d", 1+g.rng.Intn(500), g.rng.Intn(100))
}

func (g *editGen) insertRow(s *editStep) {
	root := g.next
	s.ops = append(s.ops,
		patchOp{Op: "insert", Parent: g.table, Pos: 1 + g.rng.Intn(len(g.rows)), Term: rowTerm},
		patchOp{Op: "settext", Node: root + rowPriceText, Text: g.price()})
	s.inserted = append(s.inserted, root)
	g.rows = append(g.rows, liveRow{tr: root, price: root + rowPriceText})
	g.next += rowNodes
	g.live += rowNodes
}

func (g *editGen) removeRow(s *editStep) {
	i := g.rng.Intn(len(g.rows))
	s.ops = append(s.ops, patchOp{Op: "remove", Node: g.rows[i].tr})
	g.rows[i] = g.rows[len(g.rows)-1]
	g.rows = g.rows[:len(g.rows)-1]
	g.live -= rowNodes
}

func (g *editGen) nextStep() editStep {
	if len(g.large) == 0 {
		g.large = make([]bool, 10)
		g.large[g.rng.Intn(10)] = true
	}
	s := editStep{index: g.step, large: g.large[0]}
	g.large = g.large[1:]
	g.step++
	if s.large {
		k := max(1, len(g.rows)/20)
		for i := 0; i < k; i++ {
			g.removeRow(&s)
		}
		for i := 0; i < k; i++ {
			g.insertRow(&s)
		}
	} else {
		for i := 0; i < 2; i++ {
			r := g.rows[g.rng.Intn(len(g.rows))]
			s.ops = append(s.ops, patchOp{Op: "settext", Node: r.price, Text: g.price()})
		}
		r := g.rows[g.rng.Intn(len(g.rows))]
		s.ops = append(s.ops, patchOp{Op: "setattr", Node: r.tr, Key: "data-rev", Value: fmt.Sprint(s.index)})
		if s.index%2 == 0 {
			g.insertRow(&s)
		} else {
			g.removeRow(&s)
		}
	}
	s.nodes = g.live
	return s
}

type liveBench struct {
	o     options
	d     *daemon
	fleet []wrapperDef
	src   string
	page  *mdlog.Tree // parsed src; read only
	tally *tally
	man   manifest
}

// script yields the edit batches of consecutive sessions. Each session
// starts from the page and has its own seed; fresh reports that a step
// is the first of a session.
type script struct {
	seed int64
	page *mdlog.Tree
	gen  *editGen
	n    int
}

func (b *liveBench) newScript() *script { return &script{seed: b.o.seed, page: b.page} }

func (sc *script) next() (s editStep, fresh bool, err error) {
	if fresh = sc.n%sessionSteps == 0; fresh {
		if sc.gen, err = newEditGen(sc.seed*7919+int64(sc.n/sessionSteps), sc.page); err != nil {
			return s, fresh, err
		}
	}
	s = sc.gen.nextStep()
	s.index = sc.n
	sc.n++
	return s, fresh, nil
}

func setupLiveEdit(o options) (bench, error) {
	d, err := bootDaemon(1)
	if err != nil {
		return nil, err
	}
	b := &liveBench{o: o, d: d, tally: &tally{workload: "live-edit"}}
	if err := b.prepare(); err != nil {
		d.close()
		return nil, err
	}
	return b, nil
}

func (b *liveBench) prepare() error {
	fleet, err := incrementalFleet()
	if err != nil {
		return err
	}
	b.fleet = fleet
	if err := b.d.register(fleet); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.o.seed))
	b.src = html.ProductListing(rng, b.o.scale.liveNodes/9)
	b.page = mdlog.ParseHTML(b.src)
	refs, err := referenceFleet(fleet)
	if err != nil {
		return err
	}
	want, err := refs.selectAll(b.page)
	if err != nil {
		return err
	}
	if b.man, err = b.manifest(nearDuplicates(want)); err != nil {
		return err
	}
	rep, err := b.openSession()
	if err != nil {
		return err
	}
	if !checkSet(b.tally, -1, rep.body, want) {
		return fmt.Errorf("warm-up extraction failed the oracle")
	}
	return nil
}

// openSession (re)opens the live document from the page and warms it
// up: the first extraction builds the incremental state by one full
// evaluation. It returns that extraction's reply.
func (b *liveBench) openSession() (reply, error) {
	rep, err := b.d.do(http.MethodPut, "/documents/"+liveDoc, strings.NewReader(b.src), int64(len(b.src)))
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusCreated && rep.status != http.StatusOK {
		return rep, fmt.Errorf("opening live document: status %d: %s", rep.status, rep.body)
	}
	if rep, err = b.d.do(http.MethodPost, "/documents/"+liveDoc+"/extractall?output=nodes", nil, 0); err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, fmt.Errorf("warm-up extraction: status %d: %s", rep.status, rep.body)
	}
	return rep, nil
}

func (b *liveBench) manifest(nearDups int) (manifest, error) {
	m := manifest{Workload: "live-edit", Seed: b.o.seed, Fleet: langCounts(b.fleet), NearDuplicates: nearDups,
		Pages: []pageClass{{Class: "10k", Generator: "ProductListing", Pages: 1, Nodes: b.page.Size()}}}
	sc := b.newScript()
	dg := newDigest()
	dg.add(b.src)
	hist := map[string]int{}
	for i := 0; i < manifestOps; i++ {
		s, _, err := sc.next()
		if err != nil {
			return m, err
		}
		hist[sizeBucket(len(s.ops))]++
		for _, op := range s.ops {
			dg.add(op.Op, fmt.Sprint(op.Node, op.Parent, op.Pos), op.Text)
		}
	}
	m.EditBatches = hist
	m.Inputs = dg.String()
	return m, nil
}

// sizeBucket names the power-of-two bucket of an op count.
func sizeBucket(n int) string {
	lo := 1
	for lo*2 <= n {
		lo *= 2
	}
	return fmt.Sprintf("%d-%d", lo, 2*lo-1)
}

func (b *liveBench) daemon() *daemon      { return b.d }
func (b *liveBench) manifestOf() manifest { return b.man }
func (b *liveBench) close()               { b.d.close() }
func (b *liveBench) counts() (int, int)   { return b.tally.counts() }
func (b *liveBench) failures() []string   { return b.tally.msgs }

// step sends one batch and the extraction that follows it, returning
// the extraction reply and the time from PATCH sent to extraction read.
func (b *liveBench) step(s editStep) (reply, time.Duration, bool) {
	body, err := json.Marshal(map[string]any{"ops": s.ops})
	if err != nil {
		b.tally.mismatch(s.index, "", "encoding batch: %v", err)
		return reply{}, 0, false
	}
	start := time.Now()
	rp, err := b.d.do(http.MethodPatch, "/documents/"+liveDoc, bytes.NewReader(body), int64(len(body)))
	if err != nil {
		b.tally.mismatch(s.index, "", "%v", err)
		return reply{}, 0, false
	}
	re, err := b.d.do(http.MethodPost, "/documents/"+liveDoc+"/extractall?output=nodes", nil, 0)
	lat := time.Since(start)
	if err != nil {
		b.tally.mismatch(s.index, "", "%v", err)
		return reply{}, 0, false
	}
	var patched struct {
		Applied  int   `json:"applied"`
		Inserted []int `json:"inserted"`
	}
	switch {
	case rp.status != http.StatusOK:
		b.tally.mismatch(s.index, "", "PATCH status %d: %.200s", rp.status, rp.body)
		return re, lat, false
	case json.Unmarshal(rp.body, &patched) != nil || patched.Applied != len(s.ops) || !slices.Equal(patched.Inserted, s.inserted):
		b.tally.mismatch(s.index, "", "PATCH applied %d ops inserting %v, want %d inserting %v", patched.Applied, patched.Inserted, len(s.ops), s.inserted)
		return re, lat, false
	case re.status != http.StatusOK:
		b.tally.mismatch(s.index, "", "extractall status %d: %.200s", re.status, re.body)
		return re, lat, false
	}
	return re, lat, true
}

// digests reduces a set reply to one hash per wrapper.
func digests(body []byte) (map[string]uint64, error) {
	var got setReply
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(got.Results))
	for _, r := range got.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("wrapper %s: %s", r.Wrapper, r.Error)
		}
		out[r.Wrapper] = idsDigest(r.Nodes)
	}
	return out, nil
}

func idsDigest(ids []int) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, v := range ids {
		buf = strconv.AppendInt(append(buf[:0], ','), int64(v), 10)
		h.Write(buf)
	}
	return h.Sum64()
}

func (b *liveBench) run(seconds float64) runStats {
	sc := b.newScript()
	rs := runStats{}
	var seen []map[string]uint64
	var okSteps []bool
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		s, fresh, err := sc.next()
		if err == nil && fresh && s.index > 0 {
			_, err = b.openSession()
		}
		if err != nil {
			b.tally.mismatch(s.index, "", "%v", err)
			b.tally.record(false)
			break
		}
		re, lat, ok := b.step(s)
		var dg map[string]uint64
		if ok {
			if dg, err = digests(re.body); err != nil || len(dg) != len(b.fleet) {
				b.tally.mismatch(s.index, "", "bad extractall reply: %v", err)
				ok = false
			}
		}
		seen = append(seen, dg)
		okSteps = append(okSteps, ok)
		if ok {
			rs.ops = append(rs.ops, lat)
			rs.extracts = append(rs.extracts, re.lat)
			rs.nodes += int64(s.nodes)
		}
	}
	rs.wall = time.Since(start)
	// Re-open the session so the retained heap holds one maintained
	// session in its initial state, not however far the last one grew.
	if _, err := b.openSession(); err != nil {
		b.tally.mismatch(len(seen), "", "%v", err)
		b.tally.record(false)
	}
	// The oracle replays the script on a local replica and evaluates a
	// seeded sample of snapshots (and the last one) from scratch.
	if err := b.verify(seen, okSteps); err != nil && len(okSteps) > 0 {
		b.tally.mismatch(len(seen), "", "replay: %v", err)
		okSteps[len(okSteps)-1] = false
	}
	for _, ok := range okSteps {
		b.tally.record(ok)
	}
	return rs
}

func (b *liveBench) verify(seen []map[string]uint64, okSteps []bool) error {
	refs, err := referenceFleet(b.fleet)
	if err != nil {
		return err
	}
	sc := b.newScript()
	var doc *mdlog.Document
	offset := int(b.o.seed % sampleEvery)
	if offset < 0 {
		offset += sampleEvery
	}
	for i := range seen {
		s, fresh, err := sc.next()
		if err != nil {
			return err
		}
		if fresh {
			doc = mdlog.NewDocument(mdlog.ParseHTML(b.src))
		}
		for _, op := range s.ops {
			if err := op.apply(doc); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		}
		if i != 0 && i != len(seen)-1 && i%sampleEvery != offset {
			continue
		}
		if !okSteps[i] {
			continue
		}
		snap := doc.Snapshot()
		live := doc.LiveNodes()
		want, err := refs.selectAll(snap)
		if err != nil {
			return err
		}
		for name, ids := range want {
			mapped := make([]int, len(ids))
			for j, v := range ids {
				mapped[j] = live[v]
			}
			slices.Sort(mapped)
			if seen[i][name] != idsDigest(mapped) {
				b.tally.mismatch(i, name, "nodes differ from the from-scratch evaluation of the snapshot")
				okSteps[i] = false
			}
		}
	}
	return nil
}

// trace replays the edit script on a fresh session with spans on; each
// step then repeats the work in-process on a local replica: the
// Document edits, RunIncremental, and a fresh full Run on the snapshot
// for comparison.
func (b *liveBench) trace(tr *tracer, ops int, seconds float64) (traceStats, error) {
	out := traceStats{layer: map[string]float64{}}
	if err := probeCompile(tr, b.fleet, 3, out.layer); err != nil {
		return out, err
	}
	var parse []float64
	for i := 0; i < 3; i++ {
		var t *mdlog.Tree
		var err error
		_, d := tr.timed(0, 0, "html.parse", 0, func() { t, err = mdlog.ParseHTMLReader(strings.NewReader(b.src)) })
		if err != nil {
			return out, err
		}
		parse = append(parse, float64(d)/float64(t.Size()))
	}
	out.layer["html.parse_ns_per_node.10k"] = median(parse)

	inc, err := compileFleet(b.fleet)
	if err != nil {
		return out, err
	}
	full, err := compileFleet(b.fleet)
	if err != nil {
		return out, err
	}
	setShape(inc.set, out.layer)
	ctx := context.Background()
	sc := b.newScript()
	var doc *mdlog.Document

	var incMs, fullMs [2][]float64
	var mat, eng, overhead, encode []float64
	var mutateNs time.Duration
	var mutateOps int
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		s, fresh, err := sc.next()
		if err != nil {
			return out, err
		}
		if fresh {
			if _, err := b.openSession(); err != nil {
				return out, err
			}
			doc = mdlog.NewDocument(mdlog.ParseHTML(b.src))
			inc.set.RunIncremental(ctx, doc)
		}
		req := i + 1
		start := time.Now()
		re, lat, ok := b.step(s)
		if ok {
			tr.add(req, 0, "service.http", start, lat, int64(len(s.ops)))
			out.ops = append(out.ops, lat)
		}
		var applyErr error
		_, dm := tr.timed(req, 0, "tree.mutate", int64(len(s.ops)), func() {
			for _, op := range s.ops {
				if applyErr = op.apply(doc); applyErr != nil {
					return
				}
			}
		})
		if applyErr != nil {
			return out, fmt.Errorf("step %d: %w", i, applyErr)
		}
		mutateNs += dm
		mutateOps += len(s.ops)
		var results []mdlog.SetResult
		_, di := tr.timed(req, 0, "eval.incremental", int64(s.nodes), func() { results = inc.set.RunIncremental(ctx, doc) })
		items := make([]map[string]any, len(results))
		local := make(map[string][]int, len(results))
		for j, r := range results {
			items[j] = map[string]any{"wrapper": r.Name, "nodes": r.IDs}
			local[r.Name] = r.IDs
		}
		_, de := tr.timed(req, 0, "service.encode", 0, func() {
			encodeJSON(map[string]any{"id": liveDoc, "wrappers": len(items), "results": items})
		})
		if ok {
			ok = checkSet(b.tally, s.index, re.body, local)
		}
		b.tally.record(ok)
		var snap *mdlog.Tree
		tr.timed(req, 0, "tree.snapshot", int64(s.nodes), func() { snap = doc.Snapshot() })
		var fres []mdlog.SetResult
		fid, df := tr.timed(req, 0, "eval.full", int64(s.nodes), func() { fres = full.set.Run(ctx, snap) })
		full.set.Cache().Forget(snap)
		var sum mdlog.Stats
		for _, r := range fres {
			sum.Add(r.Stats)
		}
		fstart := time.Now().Add(-df)
		tr.add(req, fid, "eval.materialize", fstart, sum.Materialize, int64(s.nodes))
		tr.add(req, fid, "eval.engine", fstart.Add(sum.Materialize), sum.Eval, int64(s.nodes))
		cls := 0
		if s.large {
			cls = 1
		}
		incMs[cls] = append(incMs[cls], float64(di)/1e6)
		fullMs[cls] = append(fullMs[cls], float64(df)/1e6)
		mat = append(mat, float64(sum.Materialize)/float64(s.nodes))
		eng = append(eng, float64(sum.Eval)/float64(s.nodes))
		encode = append(encode, float64(de)/1e6)
		if ok {
			overhead = append(overhead, float64(lat-dm-di-de)/1e6)
		}
	}
	for cls, name := range []string{"small", "large"} {
		out.layer["eval.incremental.run_ms."+name] = median(incMs[cls])
		if f := median(fullMs[cls]); f > 0 {
			out.layer["eval.incremental.vs_full."+name] = median(incMs[cls]) / f
		}
	}
	ds := doc.Stats()
	out.layer["eval.incremental.overdeleted"] = float64(ds.Inc.Overdeleted)
	out.layer["eval.incremental.rederived"] = float64(ds.Inc.Rederived)
	out.layer["eval.incremental.fallbacks"] = float64(ds.Inc.Fallbacks)
	if ds.Inc.Overdeleted > 0 {
		out.layer["eval.incremental.rederive_ratio"] = float64(ds.Inc.Rederived) / float64(ds.Inc.Overdeleted)
	}
	if mutateOps > 0 {
		out.layer["tree.mutate_ns_per_op"] = float64(mutateNs) / float64(mutateOps)
	}
	out.layer["eval.materialize_ns_per_node.10k"] = median(mat)
	out.layer["eval.engine_ns_per_node.10k"] = median(eng)
	out.layer["service.overhead_ms.p50"] = median(overhead)
	out.layer["service.encode_ms.p50"] = median(encode)
	return out, nil
}
