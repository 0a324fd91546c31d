package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// crawl: a closed-loop client POSTs pages one at a time to
// /extractall?output=nodes over the 12-wrapper fleet; one request in
// five is /extract/prices?output=spans. Pages are product listings and
// news indexes of ~1k and ~10k nodes (80/20 by count; the ~100k-node
// class is generated only at tiny scale and by the traced probes); 10%
// of requests repeat a page still in the doc cache and 10% repeat one
// it has evicted.

var classNames = [3]string{"1k", "10k", "100k"}

// The loop has one client, not one per core: with two clients on two
// cores, whether two ~100k-node requests overlapped swung throughput by
// ±20% between runs of the same seed, against ±7% with one.
const (
	// nearWindow and farGap are in distinct-document insertions: a page
	// last used within nearWindow insertions is still among the doc
	// cache's 256 entries; one unused for farGap insertions has been
	// evicted.
	nearWindow = 64
	farGap     = 320
	// histCap bounds the per-class repeat candidates kept.
	histCap = 1024
	// treeRing is how many recent documents the traced replay keeps
	// parsed.
	treeRing = nearWindow
)

// page is one generated base page with its oracle answers. Requests send
// it with a trailing comment that makes each document's bytes distinct
// without changing its tree, so the references hold for every copy.
type page struct {
	class int
	gen   string
	src   string
	nodes int
	want  map[string][]int
	spans []byte // reference "prices" spans, JSON-encoded
	// verified holds reply-body hashes already checked against the
	// references.
	verified map[uint64]bool
}

func marker(doc int) string { return "<!--mdbench " + strconv.Itoa(doc) + "-->" }

// genPage builds base page i of a size class; even pages are product
// listings, odd ones news indexes.
func genPage(seed int64, class, i, nodes int) *page {
	rng := rand.New(rand.NewSource(seed*7919 + int64(class)*101 + int64(i)))
	p := &page{class: class, verified: map[uint64]bool{}}
	if i%2 == 0 {
		p.gen, p.src = "ProductListing", html.ProductListing(rng, max(1, nodes/9))
	} else {
		p.gen, p.src = "NewsIndex", html.NewsIndex(rng, 6, max(1, nodes/30))
	}
	return p
}

type crawlReq struct {
	index int
	page  *page
	doc   int
	spans bool
	kind  byte // 'n' new, 'h' repeat within the doc cache, 'f' repeat beyond it
}

type slot struct {
	class int
	kind  byte
	spans bool
}

type docUse struct {
	doc   int
	page  *page
	touch int
}

// crawlStream yields the seeded request sequence. It is stratified in
// blocks (of 50 at full scale) so that any window of requests has the
// workload's exact mix: pages per size class as scale.mix gives them,
// 80% new documents, 10% repeats within the cache and 10% beyond it,
// 20% span requests.
type crawlStream struct {
	rng     *rand.Rand
	mix     [3]int
	pages   [3][]*page
	block   []slot
	index   int
	inserts int
	nextDoc int
	rr      [3]int
	hist    [3][]docUse
}

func newCrawlStream(seed int64, mix [3]int, pages [3][]*page) *crawlStream {
	return &crawlStream{rng: rand.New(rand.NewSource(seed)), mix: mix, pages: pages}
}

func (s *crawlStream) newBlock() []slot {
	n := s.mix[0] + s.mix[1] + s.mix[2]
	classes := make([]int, 0, n)
	for c, k := range s.mix {
		for i := 0; i < k; i++ {
			classes = append(classes, c)
		}
	}
	kinds := make([]byte, n)
	for i := range kinds {
		switch {
		case i < n/10:
			kinds[i] = 'h'
		case i < n/5:
			kinds[i] = 'f'
		default:
			kinds[i] = 'n'
		}
	}
	s.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	s.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	spans := s.rng.Perm(n)
	block := make([]slot, n)
	for i := range block {
		block[i] = slot{class: classes[i], kind: kinds[i], spans: spans[i] < n/5}
	}
	return block
}

func (s *crawlStream) next() crawlReq {
	if len(s.block) == 0 {
		s.block = s.newBlock()
	}
	sl := s.block[0]
	s.block = s.block[1:]
	r := crawlReq{index: s.index, spans: sl.spans, kind: 'n'}
	s.index++
	h := s.hist[sl.class]
	var cands []int
	for i, u := range h {
		if (sl.kind == 'h' && u.touch >= s.inserts-nearWindow) || (sl.kind == 'f' && u.touch <= s.inserts-farGap) {
			cands = append(cands, i)
		}
	}
	if sl.kind != 'n' && len(cands) > 0 {
		u := &h[cands[s.rng.Intn(len(cands))]]
		if sl.kind == 'f' {
			s.inserts++
		}
		u.touch = s.inserts
		r.page, r.doc, r.kind = u.page, u.doc, sl.kind
		return r
	}
	// New documents cycle through the class's base pages, so the mix of
	// generators is exact in any window.
	ps := s.pages[sl.class]
	r.page = ps[s.rr[sl.class]%len(ps)]
	s.rr[sl.class]++
	r.doc = s.nextDoc
	s.nextDoc++
	s.inserts++
	h = append(h, docUse{doc: r.doc, page: r.page, touch: s.inserts})
	if len(h) > histCap {
		h = h[len(h)-histCap:]
	}
	s.hist[sl.class] = h
	return r
}

type crawlBench struct {
	o      options
	d      *daemon
	fleet  []wrapperDef
	pages  [3][]*page
	tally  *tally
	man    manifest
	seed   maphash.Seed
	warmup int
}

func setupCrawl(o options) (bench, error) {
	d, err := bootDaemon(1)
	if err != nil {
		return nil, err
	}
	b := &crawlBench{o: o, d: d, tally: &tally{workload: "crawl"}, seed: maphash.MakeSeed()}
	if err := b.prepare(); err != nil {
		d.close()
		return nil, err
	}
	return b, nil
}

func (b *crawlBench) prepare() error {
	fleet, err := crawlFleet()
	if err != nil {
		return err
	}
	b.fleet = fleet
	if err := b.d.register(fleet); err != nil {
		return err
	}
	refs, err := referenceFleet(fleet)
	if err != nil {
		return err
	}
	ctx := context.Background()
	dg := newDigest()
	selected := map[string]bool{}
	for c := range b.pages {
		for i := 0; i < b.o.scale.bases[c]; i++ {
			p := genPage(b.o.seed, c, i, b.o.scale.nodes[c])
			t := mdlog.ParseHTML(p.src)
			p.nodes = t.Size()
			if p.want, err = refs.selectAll(t); err != nil {
				return err
			}
			for name, ids := range p.want {
				selected[name] = selected[name] || len(ids) > 0
			}
			res, err := refs["prices"].Spans(ctx, t)
			if err != nil {
				return err
			}
			if p.spans, err = json.Marshal(res); err != nil {
				return err
			}
			dg.add(p.src)
			b.pages[c] = append(b.pages[c], p)
		}
	}
	for _, w := range fleet {
		if !selected[w.Name] {
			return fmt.Errorf("wrapper %s selects nothing on any page; the oracle would be vacuous", w.Name)
		}
	}
	// The document marker must not change the tree, or one reference
	// would not serve every copy of a page.
	p0 := b.pages[0][0]
	if n := mdlog.ParseHTML(p0.src + marker(0)).Size(); n != p0.nodes {
		return fmt.Errorf("marker changes the tree: %d nodes, want %d", n, p0.nodes)
	}
	b.man = b.manifest(dg)
	// Warm-up: the first base page of each class once per request kind,
	// as documents the stream never repeats.
	for c := range b.pages {
		for _, p := range b.pages[c][:min(1, len(b.pages[c]))] {
			for _, spans := range []bool{false, true} {
				b.warmup--
				r := crawlReq{index: b.warmup, page: p, doc: b.warmup, spans: spans}
				rep, err := b.send(r)
				if err != nil {
					return err
				}
				if !b.check(r, rep) {
					return fmt.Errorf("warm-up request failed the oracle")
				}
			}
		}
	}
	return nil
}

func (b *crawlBench) manifest(dg *digest) manifest {
	m := manifest{Workload: "crawl", Seed: b.o.seed, Fleet: langCounts(b.fleet), NearDuplicates: nearDuplicates(b.answers()...)}
	for c := range b.pages {
		byGen := map[string]*pageClass{}
		for _, p := range b.pages[c] {
			pc := byGen[p.gen]
			if pc == nil {
				pc = &pageClass{Class: classNames[c], Generator: p.gen}
				byGen[p.gen] = pc
			}
			pc.Pages++
			pc.Nodes += p.nodes
		}
		for _, gen := range []string{"ProductListing", "NewsIndex"} {
			if pc := byGen[gen]; pc != nil {
				m.Pages = append(m.Pages, *pc)
			}
		}
	}
	s := newCrawlStream(b.o.seed, b.o.scale.mix, b.pages)
	counts := map[string]float64{}
	for i := 0; i < manifestOps; i++ {
		r := s.next()
		counts["class_"+classNames[r.page.class]]++
		counts["kind_"+map[byte]string{'n': "new", 'h': "repeat_in_cache", 'f': "repeat_beyond_cache"}[r.kind]]++
		if r.spans {
			counts["spans"]++
		}
		dg.add(strconv.Itoa(r.doc), strconv.FormatBool(r.spans), r.page.src[:64])
	}
	for k := range counts {
		counts[k] /= manifestOps
	}
	m.Requests = counts
	m.Inputs = dg.String()
	return m
}

// nearDuplicates counts members whose answers coincide with another
// member's on every page.
func nearDuplicates(answers ...map[string][]int) int {
	sig := map[string]string{}
	for _, a := range answers {
		for name, ids := range a {
			sig[name] += fmt.Sprint(ids)
		}
	}
	count := map[string]int{}
	for _, s := range sig {
		count[s]++
	}
	n := 0
	for _, s := range sig {
		if count[s] > 1 {
			n++
		}
	}
	return n
}

func (b *crawlBench) answers() []map[string][]int {
	var out []map[string][]int
	for c := range b.pages {
		for _, p := range b.pages[c] {
			out = append(out, p.want)
		}
	}
	return out
}

func (b *crawlBench) daemon() *daemon      { return b.d }
func (b *crawlBench) manifestOf() manifest { return b.man }
func (b *crawlBench) close()               { b.d.close() }
func (b *crawlBench) counts() (int, int)   { return b.tally.counts() }
func (b *crawlBench) failures() []string   { return b.tally.msgs }

func (b *crawlBench) send(r crawlReq) (reply, error) {
	m := marker(r.doc)
	body := io.MultiReader(strings.NewReader(r.page.src), strings.NewReader(m))
	path := "/extractall?output=nodes"
	if r.spans {
		path = "/extract/prices?output=spans"
	}
	return b.d.do(http.MethodPost, path, body, int64(len(r.page.src)+len(m)))
}

// check verifies a reply against the page's references. Identical
// bodies for the same page are checked once and then matched by hash.
func (b *crawlBench) check(r crawlReq, rep reply) bool {
	if rep.status != http.StatusOK {
		b.tally.mismatch(r.index, "", "status %d: %.200s", rep.status, rep.body)
		return false
	}
	body := rep.body
	if r.spans {
		var got struct {
			Wrapper string          `json:"wrapper"`
			Spans   json.RawMessage `json:"spans"`
		}
		if err := json.Unmarshal(rep.body, &got); err != nil {
			b.tally.mismatch(r.index, "prices", "decoding reply: %v", err)
			return false
		}
		body = got.Spans
	}
	h := maphash.Bytes(b.seed, body) ^ uint64(len(body))
	if r.spans {
		h = ^h
	}
	if r.page.verified[h] {
		return true
	}
	if r.spans {
		var got mdlog.SpanResult
		if err := json.Unmarshal(body, &got); err != nil {
			b.tally.mismatch(r.index, "prices", "decoding spans: %v", err)
			return false
		}
		canon, err := json.Marshal(got)
		if err != nil || string(canon) != string(r.page.spans) {
			b.tally.mismatch(r.index, "prices", "%d span rows, want the reference's", got.Tuples())
			return false
		}
	} else if !checkSet(b.tally, r.index, rep.body, r.page.want) {
		return false
	}
	r.page.verified[h] = true
	return true
}

func (b *crawlBench) run(seconds float64) runStats {
	stream := newCrawlStream(b.o.seed, b.o.scale.mix, b.pages)
	rs := runStats{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r := stream.next()
		rep, err := b.send(r)
		if err != nil {
			b.tally.mismatch(r.index, "", "%v", err)
		}
		ok := err == nil && b.check(r, rep)
		b.tally.record(ok)
		if ok {
			rs.ops = append(rs.ops, rep.lat)
			rs.nodes += int64(r.page.nodes)
		}
	}
	rs.wall = time.Since(start)
	rs.extracts = rs.ops
	return rs
}

// trace replays the same seeded stream with spans on: after each HTTP
// call the client repeats the request's work in-process, one span per
// layer call (parse, QuerySet.Run or Spans, encode).
func (b *crawlBench) trace(tr *tracer, ops int, seconds float64) (traceStats, error) {
	out := traceStats{layer: map[string]float64{}}
	if err := probeCompile(tr, b.fleet, 3, out.layer); err != nil {
		return out, err
	}
	cf, err := compileFleet(b.fleet)
	if err != nil {
		return out, err
	}
	var prices *mdlog.CompiledQuery
	for i, w := range b.fleet {
		if w.Name == "prices" {
			prices = cf.queries[i]
		}
	}
	var (
		parse, mat, eng, treedb  [3][]float64
		overhead, encode, enumNs []float64
		spanRows                 []float64
		hits, runs               int64
		// ring keeps the recent documents parsed, standing in for the
		// doc cache when a repeat within it arrives.
		ring      = map[int]*mdlog.Tree{}
		ringOrder []int
	)
	stream := newCrawlStream(b.o.seed, b.o.scale.mix, b.pages)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ctx := context.Background()
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		r := stream.next()
		req := r.index + 1
		start := time.Now()
		rep, err := b.send(r)
		ok := err == nil && b.check(r, rep)
		b.tally.record(ok)
		if !ok {
			continue
		}
		tr.add(req, 0, "service.http", start, rep.lat, int64(r.page.nodes))
		out.ops = append(out.ops, rep.lat)
		c, n := r.page.class, float64(r.page.nodes)
		var inproc time.Duration
		t := ring[r.doc]
		if r.kind != 'h' || t == nil {
			_, d := tr.timed(req, 0, "html.parse", int64(r.page.nodes), func() {
				t, err = mdlog.ParseHTMLReader(strings.NewReader(r.page.src + marker(r.doc)))
			})
			if err != nil {
				return out, fmt.Errorf("in-process parse: %w", err)
			}
			inproc += d
			parse[c] = append(parse[c], float64(d)/n)
			ring[r.doc] = t
			ringOrder = append(ringOrder, r.doc)
			if len(ringOrder) > treeRing {
				delete(ring, ringOrder[0])
				ringOrder = ringOrder[1:]
			}
		}
		var shape any
		if r.spans {
			var res mdlog.SpanResult
			var st mdlog.Stats
			_, d := tr.timed(req, 0, "span.extract", int64(r.page.nodes), func() { res, st, err = prices.SpansStats(ctx, t) })
			if err != nil {
				return out, err
			}
			inproc += d
			// With the node part memoized, a second call is span
			// enumeration alone.
			_, de := tr.timed(req, 0, "span.enumerate", st.Spans, func() { _, _, err = prices.SpansStats(ctx, t) })
			if err != nil {
				return out, err
			}
			spanRows = append(spanRows, float64(st.Spans))
			if st.Spans > 0 {
				enumNs = append(enumNs, float64(de)/float64(st.Spans))
			}
			shape = map[string]any{"wrapper": "prices", "spans": res, "stats": st}
		} else {
			var results []mdlog.SetResult
			runStart := time.Now()
			id, d := tr.timed(req, 0, "mdlog.queryset.run", int64(r.page.nodes), func() { results = cf.set.Run(ctx, t) })
			inproc += d
			var sum mdlog.Stats
			items := make([]map[string]any, len(results))
			for i, res := range results {
				sum.Add(res.Stats)
				items[i] = map[string]any{"wrapper": res.Name, "nodes": res.IDs}
			}
			tr.add(req, id, "eval.materialize", runStart, sum.Materialize, int64(r.page.nodes))
			tr.add(req, id, "eval.engine", runStart.Add(sum.Materialize), sum.Eval, int64(r.page.nodes))
			hits += sum.CacheHits
			runs += sum.Runs
			if r.kind != 'h' {
				mat[c] = append(mat[c], float64(sum.Materialize)/n)
				eng[c] = append(eng[c], float64(sum.Eval)/n)
			}
			shape = map[string]any{"wrappers": cf.set.Len(), "fused": cf.set.FusedLen(), "results": items}
		}
		_, d := tr.timed(req, 0, "service.encode", 0, func() { encodeJSON(shape) })
		inproc += d
		encode = append(encode, float64(d)/1e6)
		overhead = append(overhead, float64(rep.lat-inproc)/1e6)
		if r.kind != 'h' && c != 1 {
			_, dt := tr.timed(req, 0, "eval.treedb", int64(r.page.nodes), func() { mdlog.TreeDB(t) })
			treedb[c] = append(treedb[c], float64(dt)/n)
		}
	}
	for c, name := range classNames {
		out.layer["html.parse_ns_per_node."+name] = median(parse[c])
		out.layer["eval.materialize_ns_per_node."+name] = median(mat[c])
		out.layer["eval.engine_ns_per_node."+name] = median(eng[c])
	}
	out.layer["eval.treedb_ns_per_node.1k"] = median(treedb[0])
	out.layer["eval.treedb_ns_per_node.100k"] = median(treedb[2])
	if runs > 0 {
		out.layer["eval.treecache.hit_ratio"] = float64(hits) / float64(runs)
	}
	out.layer["service.overhead_ms.p50"] = median(overhead)
	out.layer["service.encode_ms.p50"] = median(encode)
	out.layer["span.rows_per_request"] = mean(spanRows)
	out.layer["span.enum_ns_per_row"] = median(enumNs)
	return out, nil
}

// encodeJSON encodes v the way the daemon writes replies, discarding
// the bytes.
func encodeJSON(v any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // io.Discard never fails
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
