package span

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func tuples(f *Formula, text string) [][]int32 {
	a := f.Compile()
	sc := NewScratch()
	var out [][]int32
	a.Enumerate(text, sc, func(marks []int32) {
		cp := make([]int32, len(marks))
		copy(cp, marks)
		out = append(out, cp)
	})
	return sortTuples(out)
}

func sortTuples(ts [][]int32) [][]int32 {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && lessTuple(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	return ts
}

func lessTuple(a, b []int32) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func TestFormulaBasic(t *testing.T) {
	f := MustParseFormula(`\$(?<amt>\d+\.\d\d)`)
	if got := f.Vars; !reflect.DeepEqual(got, []string{"amt"}) {
		t.Fatalf("vars = %v", got)
	}
	got := tuples(f, "price $3.50 or $10.25")
	want := [][]int32{{7, 11}, {16, 21}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
}

func TestFormulaAllMatches(t *testing.T) {
	// All-matches semantics: every substring match counts, not just
	// leftmost-longest. a+ over "aaa" yields all 6 nonempty spans.
	f := MustParseFormula(`(?<x>a+)`)
	got := tuples(f, "aaa")
	want := [][]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
}

func TestFormulaNoVars(t *testing.T) {
	// A var-free formula acts as a boolean filter: one empty tuple if
	// any substring matches, none otherwise.
	f := MustParseFormula(`ab`)
	if got := tuples(f, "xxabyy"); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("tuples = %v, want one empty tuple", got)
	}
	if got := tuples(f, "xxayy"); len(got) != 0 {
		t.Fatalf("tuples = %v, want none", got)
	}
}

func TestFormulaTwoVars(t *testing.T) {
	f := MustParseFormula(`(?<k>[a-z]+)=(?<v>\d+)`)
	got := f.NaiveEnumerate("a=1 bc=23")
	auto := tuples(f, "a=1 bc=23")
	if !reflect.DeepEqual(got, auto) {
		t.Fatalf("naive %v != auto %v", got, auto)
	}
	// The maximal matches must be present.
	found := false
	for _, tu := range auto {
		if reflect.DeepEqual(tu, []int32{4, 6, 7, 9}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing bc=23 tuple in %v", auto)
	}
}

func TestFormulaErrors(t *testing.T) {
	cases := []string{
		`(?<x>a)(?<x>b)`, // duplicate variable
		`((?<x>a)|b)`,    // variable in one alternation branch only
		`((?<x>a))*`,     // variable under a star
		`(a?)*`,          // nullable star body
		`(?<x>a`,         // unterminated group
		`[a-`,            // unterminated class
		`a{3,1}`,         // inverted bound
		`(?<x>a){2}`,     // variable under a bound
	}
	for _, src := range cases {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("ParseFormula(%q): want error", src)
		}
	}
}

func TestFormulaQuantifiers(t *testing.T) {
	for _, tc := range []struct {
		src, text string
		want      int // distinct tuples
	}{
		{`(?<x>ab{2,3}c)`, "abbc abbbc abc", 2},
		{`(?<x>a?b)`, "ab", 2},     // "ab" and "b"
		{`(?<x>(ab)+)`, "abab", 3}, // ab(0,2), ab(2,4), abab(0,4)
		{`(?<x>\d{3})`, "12345", 3},
	} {
		got := tuples(MustParseFormula(tc.src), tc.text)
		if len(got) != tc.want {
			t.Errorf("%s over %q: %d tuples %v, want %d", tc.src, tc.text, len(got), got, tc.want)
		}
	}
}

func TestAutoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		src := RandomFormula(rng, 3)
		f, err := ParseFormula(src)
		if err != nil {
			t.Fatalf("RandomFormula produced invalid %q: %v", src, err)
		}
		text := RandomText(rng, 12)
		naive := f.NaiveEnumerate(text)
		auto := tuples(f, text)
		if len(naive) == 0 && len(auto) == 0 {
			continue
		}
		if !reflect.DeepEqual(naive, auto) {
			t.Fatalf("formula %q text %q: naive %v != auto %v", src, text, naive, auto)
		}
	}
}

func TestLiteralPrefilters(t *testing.T) {
	f := MustParseFormula(`\$(?<amt>\d+)`)
	a := f.Compile()
	if a.startLit == "" || !strings.HasPrefix(a.startLit, "$") {
		t.Errorf("startLit = %q, want $-prefix", a.startLit)
	}
	// mustLit lets Enumerate skip texts without the literal entirely.
	if got := tuples(f, strings.Repeat("no dollars here ", 10)); len(got) != 0 {
		t.Fatalf("unexpected matches %v", got)
	}
}

func TestProgramParse(t *testing.T) {
	p := MustParseProgram(`
		% find prices in table cells
		cell(X) :- label_td(Y), firstchild(Y, X), label_#text(X).
		price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>\d+\.\d\d)/, A).
	`)
	if got := p.RuleNames(); !reflect.DeepEqual(got, []string{"price"}) {
		t.Fatalf("rules = %v", got)
	}
	np, cands, err := p.NodeProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("cands = %v", cands)
	}
	if !strings.Contains(np.String(), "cell(") {
		t.Fatalf("node program lost user rules:\n%s", np.String())
	}
}

func TestProgramParseErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`p(X, A) :- text(X, S).`, "head variable"},
		{`p(X, A) :- text(X, S), match(S, /(?<a>\d)(?<b>\d)/, A).`, "capture variables"},
		{`p(X, A) :- match(S, /(?<a>\d)/, A).`, "before it is bound"},
		{`p(X, A) :- text(X, S), match(S, /(?<a>[/, A).`, "unterminated character class"},
		{`q(X) :- dom(X).`, "span rule"},
		{`p(X, A) :- text(X, S), match(S, /(?<a>\d)/, A). p(X, B) :- text(X, S), match(S, /(?<b>\w)/, B).`, "duplicate"},
	}
	for _, tc := range cases {
		_, err := ParseProgram(tc.src)
		if err == nil {
			t.Errorf("ParseProgram(%q): want error containing %q", tc.src, tc.frag)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("ParseProgram(%q): error %q, want substring %q", tc.src, err, tc.frag)
		}
	}
}

// mapSource backs evaluator tests with explicit per-node data.
type mapSource struct {
	text  map[int]string
	attrs map[int]map[string]string
}

func (m mapSource) NodeText(id int) string { return m.text[id] }
func (m mapSource) NodeAttr(id int, name string) (string, bool) {
	v, ok := m.attrs[id][name]
	return v, ok
}

func TestEvaluator(t *testing.T) {
	p := MustParseProgram(`
		price(X, A) :- text(X, S), match(S, /\$(?<amt>\d+\.\d\d)/, A).
		link(X, U) :- attr(X, "href", S), match(S, /(?<u>.+)/, U).
	`)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	src := mapSource{
		text: map[int]string{1: "price $3.50", 2: "free", 3: ""},
		attrs: map[int]map[string]string{
			2: {"href": "http://x"},
		},
	}
	res := ev.Eval(src, func(pred string) []int { return []int{1, 2, 3} })
	price := res.Rel("price")
	if price == nil || len(price.Rows) != 1 {
		t.Fatalf("price rows = %+v", res)
	}
	row := price.Rows[0]
	if row.Node != 1 || row.Spans[0].Text != "3.50" || row.Spans[0].Start != 7 {
		t.Fatalf("price row = %+v", row)
	}
	link := res.Rel("link")
	if link == nil || len(link.Rows) == 0 || link.Rows[0].Node != 2 {
		t.Fatalf("link rows = %+v", link)
	}
	// .+ is all-matches: every nonempty substring of "http://x".
	full := false
	for _, r := range link.Rows {
		if r.Spans[0].Text == "http://x" {
			full = true
		}
	}
	if !full {
		t.Fatalf("missing full-value span in %+v", link.Rows)
	}
	if res.Tuples() != len(price.Rows)+len(link.Rows) {
		t.Fatalf("Tuples = %d", res.Tuples())
	}
}

func TestEvaluatorFilters(t *testing.T) {
	p := MustParseProgram(`
		pair(X, K, V) :- text(X, S), match(S, /(?<k>[a-z]+)=(?<v>\d+)/, K, V),
			match(S, /(?<w>[a-z]+=\d+)/, W), within(K, W), before(K, V).
	`)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	src := mapSource{text: map[int]string{1: "ab=12"}}
	res := ev.Eval(src, func(string) []int { return []int{1} })
	rows := res.Rel("pair").Rows
	want := Binding{Node: 1, Spans: []Span{{0, 2, "ab"}, {3, 5, "12"}}}
	found := false
	for _, r := range rows {
		if reflect.DeepEqual(r, want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("rows = %+v, want to contain %+v", rows, want)
	}
	for _, r := range rows {
		if r.Spans[0].End > r.Spans[1].Start {
			t.Fatalf("before() violated in %+v", r)
		}
	}
}

func TestEvaluatorDedup(t *testing.T) {
	// Two distinct W instantiations project to the same (K) tuple; rows
	// must dedup.
	p := MustParseProgram(`
		k(X, K) :- text(X, S), match(S, /(?<k>ab)/, K), match(S, /(?<w>.)/, W).
	`)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	src := mapSource{text: map[int]string{1: "xaby"}}
	res := ev.Eval(src, func(string) []int { return []int{1} })
	if rows := res.Rel("k").Rows; len(rows) != 1 {
		t.Fatalf("rows = %+v, want 1 after dedup", rows)
	}
}

// TestEvaluatorManyRowsPerCandidate runs a rule whose row count per
// candidate varies from none to hundreds, early and late, so the rows
// slice outgrows its presize mid-run; every span must survive growth.
func TestEvaluatorManyRowsPerCandidate(t *testing.T) {
	p := MustParseProgram(`all(X, A) :- text(X, S), match(S, /(?<a>.+)/, A).`)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	src := mapSource{text: map[int]string{}}
	var cands []int
	want := 0
	for id := 0; id < 300; id++ {
		n := id % 7 // .+ over n characters: n(n+1)/2 spans
		if id > 250 {
			n = 30
		}
		src.text[id] = strings.Repeat("x", n)
		cands = append(cands, id)
		want += n * (n + 1) / 2
	}
	rows := ev.Eval(src, func(string) []int { return cands }).Rel("all").Rows
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		if i > 0 && cmpRows(rows[i-1], r) >= 0 {
			t.Fatalf("rows %d and %d out of order: %+v, %+v", i-1, i, rows[i-1], r)
		}
		if sp := r.Spans[0]; sp.Text != src.text[r.Node][sp.Start:sp.End] {
			t.Fatalf("row %+v: span text does not match its node", r)
		}
	}
}

// TestGrowRows checks the rows growth policy: with rows spread evenly
// over the candidates one extrapolated growth suffices, and with every
// row in the last candidates growth stays geometric.
func TestGrowRows(t *testing.T) {
	const total = 1000
	// fill appends perCand(ci) rows per candidate after presizing to
	// total, as Eval does, and returns the capacity allocated overall
	// and the final row count.
	fill := func(perCand func(ci int) int) (allocated, final int) {
		rows := make([]Binding, 0, total)
		allocated = total
		for ci := 0; ci < total; ci++ {
			for j := perCand(ci); j > 0; j-- {
				if len(rows) == cap(rows) {
					rows = growRows(rows, ci+1, total)
					allocated += cap(rows)
				}
				rows = append(rows, Binding{Node: ci})
			}
		}
		return allocated, len(rows)
	}
	if a, n := fill(func(int) int { return 3 }); a > 3*n/2 {
		t.Errorf("even rows: allocated %d for %d rows, want at most %d", a, n, 3*n/2)
	}
	late := func(ci int) int {
		if ci >= total-10 {
			return 1000
		}
		return 0
	}
	if a, n := fill(late); a > 4*n {
		t.Errorf("late rows: allocated %d for %d rows, want at most %d", a, n, 4*n)
	}
}

func TestRandomFormulaAlwaysParses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		src := RandomFormula(rng, 4)
		if _, err := ParseFormula(src); err != nil {
			t.Fatalf("RandomFormula #%d %q: %v", i, src, err)
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	f := MustParseFormula(`\$(?<amt>[0-9]+\.[0-9][0-9])`)
	a := f.Compile()
	sc := NewScratch()
	text := strings.Repeat("filler text without prices ", 20) + "total $123.45 due"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		a.Enumerate(text, sc, func([]int32) { n++ })
		if n != 1 {
			b.Fatal(n)
		}
	}
}

func ExampleFormula() {
	f := MustParseFormula(`\$(?<amt>\d+\.\d\d)`)
	sc := NewScratch()
	f.Compile().Enumerate("pay $9.99 now", sc, func(marks []int32) {
		fmt.Println(marks[0], marks[1])
	})
	// Output: 5 9
}
