package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/html"
)

// registry-churn: a fleet (24 members at full scale) of near-duplicates
// of six base shapes, two members MSO, is registered in setup; one
// client loops
// PUT /wrappers/{name}, replacing a seeded member with a fresh variant,
// then POST /extractall on one fixed ~1k-node page.

// churnBases are the six base shapes, as datalog bodies over X, Y, Z.
var churnBases = [][]string{
	{"firstchild(X,Y)", "label_td(Y)"},
	{"label_td(X)", "firstchild(X,Y)", "label_b(Y)"},
	{"label_tr(X)", "firstchild(X,Y)", "nextsibling(Y,Z)", "label_td(Z)"},
	{"nextsibling(X,Y)", "label_td(Y)", "firstchild(Y,Z)"},
	{"label_td(X)", "child(X,Y)", "label_em(Y)"},
	{"label_tr(X)", "child(X,Y)", "label_td(Y)"},
}

var (
	churnLabels  = []string{"table", "tr", "td", "b", "em", "th", "h1", "p"}
	churnLeaves  = []string{"td", "td.b", "td.em", "td.#text", "td.b.#text", "td.em.#text", "th", "th.#text"}
	churnRegexes = []string{`(?<amt>[0-9]+\.[0-9][0-9])`, `(?<int>[0-9]+)`, `(?<w>[A-Z][a-z]+)`, `(?<d>\$[0-9]+)`}
	// churnKinds are the replacement kinds; "new" variants rotate over
	// five languages, MSO replaces only MSO members.
	churnKinds = []string{"alpha", "implied", "new-datalog", "new-elog", "new-xpath", "new-caterpillar", "new-spanner"}
)

func datalogRule(body []string) string {
	return "q(X) :- " + strings.Join(body, ", ") + ". ?- q."
}

// churnVariant builds a member of the given kind from the rng.
func churnVariant(kind string, rng *rand.Rand, name string) wrapperDef {
	base := churnBases[rng.Intn(len(churnBases))]
	label := func() string { return churnLabels[rng.Intn(len(churnLabels))] }
	w := wrapperDef{Name: name, Lang: mdlog.LangDatalog}
	switch kind {
	case "alpha": // the base with its variables renamed
		v := rng.Intn(1000)
		r := strings.NewReplacer("X", fmt.Sprintf("A%d", v), "Y", fmt.Sprintf("B%d", v), "Z", fmt.Sprintf("C%d", v))
		body := make([]string, len(base))
		for i, a := range base {
			body[i] = r.Replace(a)
		}
		w.Source = strings.Replace(datalogRule(body), "q(X)", r.Replace("q(X)"), 1)
	case "implied": // the base plus conjuncts implied by its own atoms
		body := append([]string{}, base...)
		for j, a := range base {
			for m := 0; m < rng.Intn(3); m++ {
				body = append(body, strings.NewReplacer("Y", fmt.Sprintf("Y%d%d", j, m), "Z", fmt.Sprintf("Z%d%d", j, m)).Replace(a))
			}
		}
		w.Source = datalogRule(append(body, "dom(X)"))
	case "new-datalog":
		w.Source = datalogRule([]string{"label_" + label() + "(X)", "child(X,Y)", "label_" + label() + "(Y)", "child(Y,Z)", "label_" + label() + "(Z)"})
	case "new-elog":
		w.Lang, w.Source, w.Pred = mdlog.LangElog, elogField(churnLeaves[rng.Intn(len(churnLeaves))]), "f"
	case "new-xpath":
		a, b := label(), label()
		w.Lang, w.Source = mdlog.LangXPath, []string{"//" + a + "[" + b + "]", "//" + a + "/" + b, "//" + a + "//" + b}[rng.Intn(3)]
	case "new-caterpillar":
		a, b := label(), label()
		w.Lang, w.Source = mdlog.LangCaterpillar, fmt.Sprintf("child*.label_%s.child.label_%s.(child^-1).label_%s", a, b, a)
	case "new-spanner":
		w.Lang = mdlog.LangSpanner
		w.Source = fmt.Sprintf("cell(X) :- label_%s(Y), child(Y, X), label_#text(X).\nspan(X, A) :- cell(X), text(X, S), match(S, /%s/, A).\n?- cell.\n",
			label(), churnRegexes[rng.Intn(len(churnRegexes))])
	case "mso-1":
		w.Lang, w.Source = mdlog.LangMSO, fmt.Sprintf("label_%s(x) & exists y (child(x,y) & label_%s(y))", label(), label())
	case "mso-2":
		w.Lang, w.Source = mdlog.LangMSO, fmt.Sprintf("label_%s(x) & exists y (child(x,y) & forall z (child(y,z) -> label_%s(z)))", label(), label())
	}
	return w
}

type churnIter struct {
	index int
	slot  int
	kind  string
	def   wrapperDef
}

// churnGen yields the seeded fleet and replacement sequence. Kinds
// rotate so that every eight iterations replace one member of each
// kind, the last an MSO member with one or two quantifier blocks (∃, or
// ∃ over ∀).
type churnGen struct {
	rng   *rand.Rand
	n     int
	index int
}

func newChurnGen(seed int64, n int) *churnGen {
	return &churnGen{rng: rand.New(rand.NewSource(seed)), n: n}
}

func slotName(i int) string { return fmt.Sprintf("m%02d", i) }

// initial is the fleet registered in setup: kinds round-robin over the
// non-MSO slots, then the two MSO members.
func (g *churnGen) initial() []wrapperDef {
	fleet := make([]wrapperDef, g.n)
	for i := 0; i < g.n-2; i++ {
		fleet[i] = churnVariant(churnKinds[i%len(churnKinds)], g.rng, slotName(i))
	}
	fleet[g.n-2] = churnVariant("mso-1", g.rng, slotName(g.n-2))
	fleet[g.n-1] = churnVariant("mso-2", g.rng, slotName(g.n-1))
	return fleet
}

func (g *churnGen) next() churnIter {
	it := churnIter{index: g.index}
	if k := g.index % (len(churnKinds) + 1); k < len(churnKinds) {
		it.kind = churnKinds[k]
		it.slot = g.rng.Intn(g.n - 2)
	} else {
		it.kind = []string{"mso-1", "mso-2"}[g.rng.Intn(2)]
		it.slot = g.n - 2 + g.rng.Intn(2)
	}
	g.index++
	it.def = churnVariant(it.kind, g.rng, slotName(it.slot))
	return it
}

type churnBench struct {
	o       options
	d       *daemon
	src     string
	page    *mdlog.Tree
	initial []wrapperDef
	tally   *tally
	man     manifest
	refs    map[string]uint64 // oracle digest per lang+source
}

func setupChurn(o options) (bench, error) {
	d, err := bootDaemon(1)
	if err != nil {
		return nil, err
	}
	b := &churnBench{o: o, d: d, tally: &tally{workload: "registry-churn"}, refs: map[string]uint64{}}
	if err := b.prepare(); err != nil {
		d.close()
		return nil, err
	}
	return b, nil
}

func (b *churnBench) prepare() error {
	rng := rand.New(rand.NewSource(b.o.seed))
	b.src = html.ProductListing(rng, b.o.scale.churnNodes/9)
	b.page = mdlog.ParseHTML(b.src)
	g := newChurnGen(b.o.seed, b.o.scale.churnFleet)
	b.initial = g.initial()
	if err := b.d.register(b.initial); err != nil {
		return err
	}
	want, err := b.expected(b.initial)
	if err != nil {
		return err
	}
	b.man = b.manifest(want)
	// Warm-up: the first extraction fuses the fleet.
	got, _, ok := b.extract(-1)
	if !ok || !b.compare(-1, got, want) {
		return fmt.Errorf("warm-up extraction failed the oracle")
	}
	return nil
}

func (b *churnBench) manifest(want map[string]uint64) manifest {
	m := manifest{Workload: "registry-churn", Seed: b.o.seed, Fleet: langCounts(b.initial),
		Pages: []pageClass{{Class: "1k", Generator: "ProductListing", Pages: 1, Nodes: b.page.Size()}}}
	dg := newDigest()
	dg.add(b.src)
	answers := map[uint64]int{}
	for _, w := range b.initial {
		dg.add(w.Name, w.Source)
		answers[want[w.Name]]++
	}
	for _, w := range b.initial {
		if answers[want[w.Name]] > 1 {
			m.NearDuplicates++
		}
	}
	g := newChurnGen(b.o.seed, b.o.scale.churnFleet)
	g.initial()
	m.Variants = map[string]int{}
	for i := 0; i < manifestOps; i++ {
		it := g.next()
		m.Variants[it.kind]++
		dg.add(it.def.Name, it.def.Source)
	}
	m.Inputs = dg.String()
	return m
}

// reference is the oracle digest of one member on the page, memoized by
// language and source.
func (b *churnBench) reference(w wrapperDef) (uint64, error) {
	key := w.Lang.String() + "\x00" + w.Pred + "\x00" + w.Source
	if dg, ok := b.refs[key]; ok {
		return dg, nil
	}
	q, err := w.reference()
	if err != nil {
		return 0, fmt.Errorf("reference %s: %w", w.Name, err)
	}
	ids, err := q.Select(context.Background(), b.page)
	if err != nil {
		return 0, err
	}
	b.refs[key] = idsDigest(ids)
	return b.refs[key], nil
}

func (b *churnBench) daemon() *daemon      { return b.d }
func (b *churnBench) manifestOf() manifest { return b.man }
func (b *churnBench) close()               { b.d.close() }
func (b *churnBench) counts() (int, int)   { return b.tally.counts() }
func (b *churnBench) failures() []string   { return b.tally.msgs }

// extract posts the fixed page to /extractall and digests the reply.
func (b *churnBench) extract(index int) (map[string]uint64, reply, bool) {
	rep, err := b.d.do(http.MethodPost, "/extractall?output=nodes", strings.NewReader(b.src), int64(len(b.src)))
	if err != nil {
		b.tally.mismatch(index, "", "%v", err)
		return nil, rep, false
	}
	if rep.status != http.StatusOK {
		b.tally.mismatch(index, "", "extractall status %d: %.200s", rep.status, rep.body)
		return nil, rep, false
	}
	dg, err := digests(rep.body)
	if err != nil {
		b.tally.mismatch(index, "", "bad extractall reply: %v", err)
		return nil, rep, false
	}
	return dg, rep, true
}

// compare checks a digested reply against the expected digests.
func (b *churnBench) compare(index int, got, want map[string]uint64) bool {
	ok := len(got) == len(want)
	if !ok {
		b.tally.mismatch(index, "", "%d wrappers in reply, want %d", len(got), len(want))
	}
	for name, dg := range want {
		if got[name] != dg {
			b.tally.mismatch(index, name, "nodes differ from the reference")
			ok = false
		}
	}
	return ok
}

// expected is the oracle digest of every member of a fleet.
func (b *churnBench) expected(fleet []wrapperDef) (map[string]uint64, error) {
	want := make(map[string]uint64, len(fleet))
	for _, w := range fleet {
		dg, err := b.reference(w)
		if err != nil {
			return nil, err
		}
		want[w.Name] = dg
	}
	return want, nil
}

// iterate sends one replacement and the extraction that follows it.
func (b *churnBench) iterate(it churnIter) (map[string]uint64, reply, time.Duration, bool) {
	start := time.Now()
	rp, err := b.d.doJSON(http.MethodPut, "/wrappers/"+it.def.Name, it.def.spec())
	if err != nil {
		b.tally.mismatch(it.index, it.def.Name, "%v", err)
		return nil, reply{}, 0, false
	}
	dg, re, ok := b.extract(it.index)
	lat := time.Since(start)
	if rp.status != http.StatusOK {
		b.tally.mismatch(it.index, it.def.Name, "PUT status %d: %.200s", rp.status, rp.body)
		ok = false
	}
	return dg, re, lat, ok
}

func (b *churnBench) run(seconds float64) runStats {
	g := newChurnGen(b.o.seed, b.o.scale.churnFleet)
	g.initial()
	var iters []churnIter
	var seen []map[string]uint64
	var okIters []bool
	rs := runStats{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		it := g.next()
		dg, re, lat, ok := b.iterate(it)
		iters = append(iters, it)
		seen = append(seen, dg)
		okIters = append(okIters, ok)
		if ok {
			rs.ops = append(rs.ops, lat)
			rs.extracts = append(rs.extracts, re.lat)
			rs.nodes += int64(b.page.Size())
		}
	}
	rs.wall = time.Since(start)
	// The oracle replays the registry and checks every member of every
	// reply against its unfused, uncached reference.
	fleet := append([]wrapperDef(nil), b.initial...)
	for i, it := range iters {
		fleet[it.slot] = it.def
		if !okIters[i] {
			continue
		}
		want, err := b.expected(fleet)
		if err != nil {
			b.tally.mismatch(it.index, it.def.Name, "%v", err)
			okIters[i] = false
			continue
		}
		okIters[i] = b.compare(it.index, seen[i], want)
	}
	for _, ok := range okIters {
		b.tally.record(ok)
	}
	return rs
}

// trace re-registers the initial fleet and replays the replacements with
// spans on; each iteration then repeats the daemon's work in-process:
// compile the variant, fuse the current fleet, run it on the page and
// encode the reply.
func (b *churnBench) trace(tr *tracer, ops int, seconds float64) (traceStats, error) {
	out := traceStats{layer: map[string]float64{}}
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
	out.layer["html.parse_ns_per_node.1k"] = median(parse)
	if err := b.d.register(b.initial); err != nil {
		return out, err
	}
	g := newChurnGen(b.o.seed, b.o.scale.churnFleet)
	g.initial()
	fleet := append([]wrapperDef(nil), b.initial...)
	compiled := make([]mdlog.NamedQuery, len(fleet))
	for i, w := range fleet {
		q, err := w.served()
		if err != nil {
			return out, err
		}
		compiled[i] = mdlog.NamedQuery{Name: w.Name, Query: q}
	}
	compileMs := map[string][]float64{}
	var fuse, check, mat, eng, overhead, encode []float64
	var set *mdlog.QuerySet
	ctx := context.Background()
	nodes := b.page.Size()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < ops && time.Now().Before(deadline); i++ {
		it := g.next()
		fleet[it.slot] = it.def
		req := i + 1
		start := time.Now()
		got, _, lat, ok := b.iterate(it)
		if ok {
			tr.add(req, 0, "service.http", start, lat, int64(nodes))
			out.ops = append(out.ops, lat)
			want, err := b.expected(fleet)
			if err != nil {
				return out, err
			}
			ok = b.compare(it.index, got, want)
		}
		b.tally.record(ok)
		var q *mdlog.CompiledQuery
		var err error
		_, dc := tr.timed(req, 0, frontEnd(it.def.Lang)+".compile", 1, func() { q, err = it.def.served() })
		if err != nil {
			return out, err
		}
		compiled[it.slot].Query = q
		compileMs[compileMetric(it.def.Lang)] = append(compileMs[compileMetric(it.def.Lang)], float64(dc)/1e6)
		_, df := tr.timed(req, 0, "opt.fuse", int64(len(fleet)), func() { set, err = mdlog.NewNamedQuerySet(compiled...) })
		if err != nil {
			return out, err
		}
		fuse = append(fuse, float64(df)/1e6)
		check = append(check, float64(set.FuseStats().CheckNs)/1e6)
		var results []mdlog.SetResult
		runStart := time.Now()
		rid, dr := tr.timed(req, 0, "mdlog.queryset.run", int64(nodes), func() { results = set.Run(ctx, b.page) })
		set.Cache().Forget(b.page)
		var sum mdlog.Stats
		items := make([]map[string]any, len(results))
		for j, r := range results {
			sum.Add(r.Stats)
			items[j] = map[string]any{"wrapper": r.Name, "nodes": r.IDs}
		}
		tr.add(req, rid, "eval.materialize", runStart, sum.Materialize, int64(nodes))
		tr.add(req, rid, "eval.engine", runStart.Add(sum.Materialize), sum.Eval, int64(nodes))
		_, de := tr.timed(req, 0, "service.encode", 0, func() {
			encodeJSON(map[string]any{"wrappers": set.Len(), "fused": set.FusedLen(), "results": items})
		})
		mat = append(mat, float64(sum.Materialize)/float64(nodes))
		eng = append(eng, float64(sum.Eval)/float64(nodes))
		encode = append(encode, float64(de)/1e6)
		if ok {
			overhead = append(overhead, float64(lat-dc-df-dr-de)/1e6)
		}
	}
	for name, xs := range compileMs {
		out.layer[name] = median(xs)
	}
	out.layer["opt.fuse_ms"] = median(fuse)
	out.layer["opt.subsume.check_ms"] = median(check)
	out.layer["eval.materialize_ns_per_node.1k"] = median(mat)
	out.layer["eval.engine_ns_per_node.1k"] = median(eng)
	out.layer["service.overhead_ms.p50"] = median(overhead)
	out.layer["service.encode_ms.p50"] = median(encode)
	if set != nil {
		setShape(set, out.layer)
	}
	out.layer["mso.dta_states"] = msoStates(fleet)
	return out, nil
}
