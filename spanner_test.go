package mdlog

import (
	"context"
	"strings"
	"testing"

	"mdlog/internal/tree"
)

const priceSpanner = `
	% text nodes inside table cells
	cell(X) :- label_td(Y), child(Y, X), label_#text(X).
	price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>[0-9]+\.[0-9][0-9])/, A).
	?- cell.
`

const pricePage = `
<html><body><table>
  <tr><td>Espresso</td><td>$2.20</td></tr>
  <tr><td>Cappuccino</td><td>$3.10</td></tr>
  <tr><td>Water</td><td>free</td></tr>
</table></body></html>`

func priceTexts(res SpanResult) []string {
	var out []string
	if rel := res.Rel("price"); rel != nil {
		for _, row := range rel.Rows {
			out = append(out, row.Spans[0].Text)
		}
	}
	return out
}

func TestSpannerBasic(t *testing.T) {
	doc := ParseHTML(pricePage)
	q, err := Compile(priceSpanner, LangSpanner)
	if err != nil {
		t.Fatal(err)
	}
	if q.Language() != LangSpanner {
		t.Fatalf("lang = %v", q.Language())
	}
	res, rs, err := q.SpansStats(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := priceTexts(res); len(got) != 2 || got[0] != "2.20" || got[1] != "3.10" {
		t.Fatalf("prices = %v", got)
	}
	if rel := res.Rel("price"); rel.Vars[0] != "A" {
		t.Fatalf("vars = %v", rel.Vars)
	}
	if rs.Spans != 2 {
		t.Fatalf("Stats.Spans = %d", rs.Spans)
	}
	if q.Stats().Spans != 2 {
		t.Fatalf("aggregate Spans = %d", q.Stats().Spans)
	}
	// The node part still answers Select (the ?- cell directive): six
	// text nodes sit inside td cells.
	ids, err := q.Select(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("cells = %v", ids)
	}
}

func TestSpannerEngines(t *testing.T) {
	doc := ParseHTML(pricePage)
	base, err := Compile(priceSpanner, LangSpanner)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Spans(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineLinear, EngineBitmap} {
		q, err := Compile(priceSpanner, LangSpanner, WithEngine(engine))
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		got, err := q.Spans(context.Background(), doc)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if len(got) != len(want) || len(got.Rel("price").Rows) != len(want.Rel("price").Rows) {
			t.Fatalf("%v: %+v != %+v", engine, got, want)
		}
	}
}

func TestSpannerAttr(t *testing.T) {
	doc := ParseHTML(`<html><body>
	  <a href="https://example.com/a">one</a>
	  <a href="https://example.com/b">two</a>
	  <a>no href</a>
	</body></html>`)
	q, err := Compile(`
		link(X, U) :- label_a(X), attr(X, "href", S),
			match(S, /(?<u>https:\/\/[a-z.\/]+)/, U).
	`, LangSpanner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Spans(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rel("link").Rows
	var full []string
	for _, r := range rows {
		// All-matches semantics: keep the spans covering the whole value.
		if r.Spans[0].Start == 0 && r.Spans[0].End == len("https://example.com/a") {
			full = append(full, r.Spans[0].Text)
		}
	}
	if len(full) != 2 || full[0] != "https://example.com/a" || full[1] != "https://example.com/b" {
		t.Fatalf("full-value links = %v (rows %+v)", full, rows)
	}
}

func TestSpannerLanguagePlumbing(t *testing.T) {
	l, err := ParseLanguage("spanner")
	if err != nil || l != LangSpanner {
		t.Fatalf("ParseLanguage = %v, %v", l, err)
	}
	if LangSpanner.String() != "spanner" {
		t.Fatalf("String = %q", LangSpanner)
	}
	names := LanguageNames()
	if names[len(names)-1] != "spanner" || len(names) != 7 {
		t.Fatalf("LanguageNames = %v", names)
	}
	if _, err := ParseLanguage("nope"); err == nil || !strings.Contains(err.Error(), "spanner") {
		t.Fatalf("unknown-language error should list spanner: %v", err)
	}
	b, err := LangSpanner.MarshalText()
	if err != nil || string(b) != "spanner" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
	var l2 Language
	if err := l2.UnmarshalText([]byte("spanner")); err != nil || l2 != LangSpanner {
		t.Fatalf("UnmarshalText = %v, %v", l2, err)
	}
}

func TestSpannerErrors(t *testing.T) {
	// Spans on a non-spanner query.
	q, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Spans(context.Background(), ParseHTML(pricePage)); err == nil {
		t.Fatal("Spans on a datalog query should error")
	}
	// A spanner program without span rules is invalid.
	if _, err := Compile(`q(X) :- label_td(X). ?- q.`, LangSpanner); err == nil {
		t.Fatal("spanner program without span rules should error")
	}
	// Invalid regex formulas surface at compile time.
	if _, err := Compile(`p(X, A) :- text(X, S), match(S, /((?<a>x)|y)/, A).`, LangSpanner); err == nil {
		t.Fatal("asymmetric alternation capture should error")
	}
}

func TestSpannerIncrementalEdits(t *testing.T) {
	d := NewDocument(ParseHTML(pricePage))
	q, err := Compile(priceSpanner, LangSpanner)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := spansInc(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := priceTexts(res); len(got) != 2 || got[0] != "2.20" {
		t.Fatalf("prices = %v", got)
	}
	// SetText on the first price cell: spans must reflect the new text.
	node := res.Rel("price").Rows[0].Node
	if err := d.SetText(node, "$9.99 (was $2.20)"); err != nil {
		t.Fatal(err)
	}
	res, err = spansInc(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	got := priceTexts(res)
	if len(got) != 3 || got[0] != "9.99" || got[1] != "2.20" || got[2] != "3.10" {
		t.Fatalf("prices after SetText = %v", got)
	}
	// AppendText: suffixing more matching text adds a span.
	if err := d.AppendText(node, " now $8.88"); err != nil {
		t.Fatal(err)
	}
	res, err = spansInc(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := priceTexts(res); len(got) != 4 || got[2] != "8.88" {
		t.Fatalf("prices after AppendText = %v", got)
	}
	// A structural edit: a brand-new cell with a price must show up
	// (the node part is delta-maintained, the automata run on the new
	// node's text).
	tds, err := Compile(`t(X) :- label_td(X). ?- t.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	tdIDs, err := selectInc(ctx, tds, d)
	if err != nil {
		t.Fatal(err)
	}
	cell := tree.New("td")
	cell.Children = append(cell.Children, tree.NewText("$7.77"))
	if _, err := d.InsertSubtree(tdIDs[0], 0, cell); err == nil {
		// td inside td is fine for the spanner: the new #text child of
		// the inserted td matches cell(X).
		res, err = spansInc(ctx, q, d)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range priceTexts(res) {
			if s == "7.77" {
				found = true
			}
		}
		if !found {
			t.Fatalf("inserted price missing: %v", priceTexts(res))
		}
	}
	// Snapshot-based Spans agrees with the incremental path on the
	// canonical live tree (modulo the id space).
	snap, err := q.Spans(ctx, d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tuples() != res.Tuples() {
		t.Fatalf("snapshot %d tuples != incremental %d", snap.Tuples(), res.Tuples())
	}
}

func TestSpannerInQuerySet(t *testing.T) {
	s, err := CompileSet([]SetSpec{
		{Name: "prices", Source: priceSpanner, Lang: LangSpanner},
		{Name: "tds", Source: `t(X) :- label_td(X). ?- t.`, Lang: LangDatalog},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedLen() != 2 {
		t.Fatalf("FusedLen = %d, want the spanner's node part to fuse", s.FusedLen())
	}
	ctx := context.Background()
	res := s.Run(ctx, ParseHTML(pricePage))
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errs: %v %v", res[0].Err, res[1].Err)
	}
	if got := priceTexts(res[0].Spans); len(got) != 2 || got[0] != "2.20" {
		t.Fatalf("fused spanner prices = %v", got)
	}
	if res[0].Stats.Spans != 2 || res[0].Stats.FusedRuns != 1 {
		t.Fatalf("spanner member stats = %+v", res[0].Stats)
	}
	if res[1].Spans != nil {
		t.Fatalf("datalog member grew spans: %+v", res[1].Spans)
	}
	if len(res[1].IDs) != 6 {
		t.Fatalf("tds = %v", res[1].IDs)
	}

	// The incremental path: same answers over a live document, and
	// edits show up.
	d := NewDocument(ParseHTML(pricePage))
	inc := s.RunIncremental(ctx, d)
	if inc[0].Err != nil {
		t.Fatal(inc[0].Err)
	}
	if got := priceTexts(inc[0].Spans); len(got) != 2 {
		t.Fatalf("incremental prices = %v", got)
	}
	node := inc[0].Spans.Rel("price").Rows[0].Node
	if err := d.SetText(node, "$5.00"); err != nil {
		t.Fatal(err)
	}
	inc = s.RunIncremental(ctx, d)
	if got := priceTexts(inc[0].Spans); len(got) != 2 || got[0] != "5.00" {
		t.Fatalf("incremental prices after SetText = %v", got)
	}
}

func TestSpannerIncrementalBitmap(t *testing.T) {
	d := NewDocument(ParseHTML(pricePage))
	q, err := Compile(priceSpanner, LangSpanner, WithEngine(EngineBitmap))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := spansInc(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := priceTexts(res); len(got) != 2 {
		t.Fatalf("prices = %v", got)
	}
	node := res.Rel("price").Rows[0].Node
	if err := d.SetText(node, "no price anymore"); err != nil {
		t.Fatal(err)
	}
	res, err = spansInc(ctx, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := priceTexts(res); len(got) != 1 || got[0] != "3.10" {
		t.Fatalf("prices after removal = %v", got)
	}
}
