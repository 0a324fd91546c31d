package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

const spannerSrc = `
	cell(X) :- label_td(Y), child(Y, X), label_#text(X).
	price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>[0-9]+\.[0-9][0-9])/, A).
	?- cell.
`

const linkSpannerSrc = `
	link(X, U) :- label_a(X), attr(X, "href", S),
		match(S, /(?<u>https:\/\/[a-z.\/]+)/, U).
`

const spanPage = `<html><body><table>
<tr><td>Espresso</td><td>$2.20</td></tr>
<tr><td>Cappuccino</td><td>$3.10</td></tr>
</table>
<a href="https://example.com/menu">menu</a>
</body></html>`

// putWrapper registers a wrapper spec and fails the test on anything
// but 201.
func putWrapper(t *testing.T, url, name, lang, source string) {
	t.Helper()
	spec, _ := json.Marshal(map[string]any{"lang": lang, "source": source})
	status, info := doJSON(t, http.MethodPut, url+"/wrappers/"+name, string(spec))
	if status != http.StatusCreated {
		t.Fatalf("PUT %s: status %d, body %v", name, status, info)
	}
}

// spanTexts digs the span texts of relation rel out of a decoded
// "spans" field (the wire shape: [{name, vars, rows:[{node, spans}]}]).
func spanTexts(t *testing.T, v any, rel string) []string {
	t.Helper()
	rels, ok := v.([]any)
	if !ok {
		t.Fatalf("spans: want JSON array, got %T (%v)", v, v)
	}
	var out []string
	for _, r := range rels {
		m := r.(map[string]any)
		if m["name"] != rel {
			continue
		}
		for _, row := range m["rows"].([]any) {
			for _, sp := range row.(map[string]any)["spans"].([]any) {
				out = append(out, sp.(map[string]any)["text"].(string))
			}
		}
	}
	return out
}

// TestServiceSpanner is the spanner acceptance path over HTTP: an
// in-text regex-capture wrapper and an attribute-value wrapper both
// return their spans through ?output=spans, non-spanner wrappers
// reject the mode, and the span counters land in /stats and /metrics.
func TestServiceSpanner(t *testing.T) {
	_, ts := newTestServer(t, nil)
	putWrapper(t, ts.URL, "prices", "spanner", spannerSrc)
	putWrapper(t, ts.URL, "links", "spanner", linkSpannerSrc)
	putWrapper(t, ts.URL, "items", "elog", elogSrc)

	// In-text regex capture: the price amounts.
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/prices?output=spans", spanPage)
	if status != http.StatusOK {
		t.Fatalf("extract spans: status %d, body %v", status, body)
	}
	if got := spanTexts(t, body["spans"], "price"); len(got) != 2 || got[0] != "2.20" || got[1] != "3.10" {
		t.Fatalf("price spans = %v", got)
	}
	if st := body["stats"].(map[string]any); st["spans"].(float64) != 2 {
		t.Fatalf("run stats %v, want spans=2", st)
	}

	// Attribute-value capture: the href URL (all-matches semantics —
	// the full-value span is among the matches).
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extract/links?output=spans", spanPage)
	if status != http.StatusOK {
		t.Fatalf("extract link spans: status %d, body %v", status, body)
	}
	links := spanTexts(t, body["spans"], "link")
	full := false
	for _, u := range links {
		if u == "https://example.com/menu" {
			full = true
		}
	}
	if !full {
		t.Fatalf("link spans %v lack the full href value", links)
	}

	// A spanner wrapper still answers the node-output modes.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extract/prices", spanPage)
	if status != http.StatusOK || len(intSlice(t, body["nodes"])) != 4 {
		t.Fatalf("node output: status %d, body %v", status, body)
	}

	// output=spans against a non-spanner wrapper is a client error.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extract/items?output=spans", spanPage)
	if status != http.StatusBadRequest {
		t.Fatalf("non-spanner spans: status %d, body %v", status, body)
	}

	// /stats and /metrics carry the span counters.
	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	prices := stats["wrappers"].(map[string]any)["prices"].(map[string]any)
	if q := prices["query"].(map[string]any); q["spans"].(float64) < 2 {
		t.Fatalf("wrapper stats %v, want spans >= 2", q)
	}
	if q := stats["totals"].(map[string]any); q["spans"].(float64) < 2 {
		t.Fatalf("totals %v, want spans >= 2", q)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	// Two runs of prices, two price spans each: every run of a spanner
	// wrapper enumerates its spans, whatever the output mode.
	if !strings.Contains(metrics, `mdlogd_wrapper_spans_total{wrapper="prices"} 4`) {
		t.Errorf("metrics lack the per-wrapper span counter")
	}
	if !strings.Contains(metrics, "mdlogd_spans_total") {
		t.Errorf("metrics lack mdlogd_spans_total")
	}
}

// TestServiceSpannerBatchAndAll covers the fan-out surfaces: /batch
// with ?output=spans, and the fused /extractall + /batchall where
// spanner members report spans and other members report empty ones.
func TestServiceSpannerBatchAndAll(t *testing.T) {
	_, ts := newTestServer(t, nil)
	putWrapper(t, ts.URL, "prices", "spanner", spannerSrc)
	putWrapper(t, ts.URL, "items", "elog", elogSrc)

	batch, _ := json.Marshal(map[string]any{"docs": []map[string]any{
		{"id": "a", "html": spanPage},
		{"id": "b", "html": `<html><body><table><tr><td>$9.99</td></tr></table></body></html>`},
	}})

	status, body := doJSON(t, http.MethodPost, ts.URL+"/batch/prices?output=spans", string(batch))
	if status != http.StatusOK {
		t.Fatalf("batch spans: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("batch results %v", results)
	}
	first := results[0].(map[string]any)
	if got := spanTexts(t, first["spans"], "price"); len(got) != 2 || got[0] != "2.20" {
		t.Fatalf("batch doc a spans = %v", got)
	}
	second := results[1].(map[string]any)
	if got := spanTexts(t, second["spans"], "price"); len(got) != 1 || got[0] != "9.99" {
		t.Fatalf("batch doc b spans = %v", got)
	}

	// Fused one-document pass: the spanner member carries spans, the
	// elog member an empty list.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extractall?output=spans", spanPage)
	if status != http.StatusOK {
		t.Fatalf("extractall spans: status %d, body %v", status, body)
	}
	byName := map[string]map[string]any{}
	for _, it := range body["results"].([]any) {
		m := it.(map[string]any)
		byName[m["wrapper"].(string)] = m
	}
	if got := spanTexts(t, byName["prices"]["spans"], "price"); len(got) != 2 {
		t.Fatalf("extractall spanner spans = %v", got)
	}
	if rels, ok := byName["items"]["spans"].([]any); !ok || len(rels) != 0 {
		t.Fatalf("extractall elog member spans = %v, want []", byName["items"]["spans"])
	}

	// Batch form of the fused pass.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/batchall?output=spans", string(batch))
	if status != http.StatusOK {
		t.Fatalf("batchall spans: status %d, body %v", status, body)
	}
	docs := body["results"].([]any)
	if len(docs) != 2 {
		t.Fatalf("batchall results %v", docs)
	}
	docB := docs[1].(map[string]any)
	found := false
	for _, it := range docB["results"].([]any) {
		m := it.(map[string]any)
		if m["wrapper"] == "prices" {
			if got := spanTexts(t, m["spans"], "price"); len(got) == 1 && got[0] == "9.99" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("batchall doc b missing the 9.99 span: %v", docB)
	}

	// xml stays per-wrapper-only under the fused endpoints.
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/extractall?output=xml", spanPage)
	if status != http.StatusBadRequest {
		t.Fatalf("extractall xml: status %d", status)
	}
}

// TestServiceSpannerSession runs the fused spans output over a live
// document session and checks an edit shows up in the next pass.
func TestServiceSpannerSession(t *testing.T) {
	_, ts := newTestServer(t, nil)
	putWrapper(t, ts.URL, "prices", "spanner", spannerSrc)

	status, body := doJSON(t, http.MethodPut, ts.URL+"/documents/menu", spanPage)
	if status != http.StatusCreated {
		t.Fatalf("PUT document: status %d, body %v", status, body)
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/documents/menu/extractall?output=spans", "")
	if status != http.StatusOK {
		t.Fatalf("session extractall: status %d, body %v", status, body)
	}
	res := body["results"].([]any)[0].(map[string]any)
	if got := spanTexts(t, res["spans"], "price"); len(got) != 2 {
		t.Fatalf("session spans = %v", got)
	}
	node := int(res["spans"].([]any)[0].(map[string]any)["rows"].([]any)[0].(map[string]any)["node"].(float64))

	ops, _ := json.Marshal(map[string]any{"ops": []map[string]any{
		{"op": "settext", "node": node, "text": "$4.40"},
	}})
	status, body = doJSON(t, http.MethodPatch, ts.URL+"/documents/menu", string(ops))
	if status != http.StatusOK {
		t.Fatalf("PATCH: status %d, body %v", status, body)
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/documents/menu/extractall?output=spans", "")
	if status != http.StatusOK {
		t.Fatalf("session extractall after edit: status %d, body %v", status, body)
	}
	res = body["results"].([]any)[0].(map[string]any)
	got := spanTexts(t, res["spans"], "price")
	if len(got) != 2 || got[0] != "4.40" {
		t.Fatalf("session spans after edit = %v", got)
	}
}
