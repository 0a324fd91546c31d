package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	mdlog "mdlog"
)

const elogSrc = `
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
`

const page = `<html><body><table>
<tr><td>Espresso</td><td><b>2.20</b></td></tr>
<tr><td>Water</td><td>1.00</td></tr>
</table></body></html>`

func newTestServer(t *testing.T, cfg *Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, v
}

func intSlice(t *testing.T, v any) []int {
	t.Helper()
	raw, ok := v.([]any)
	if !ok {
		t.Fatalf("want JSON array of node ids, got %T (%v)", v, v)
	}
	ids := make([]int, len(raw))
	for i, x := range raw {
		ids[i] = int(x.(float64))
	}
	return ids
}

// TestEndToEndElogWrapper is the acceptance path: register an Elog⁻
// wrapper over HTTP, POST an HTML document, and get the same node ids
// CompiledQuery.Select computes directly; /stats reflects the run.
func TestEndToEndElogWrapper(t *testing.T) {
	_, ts := newTestServer(t, nil)

	spec, _ := json.Marshal(map[string]any{"lang": "elog", "source": elogSrc})
	status, info := doJSON(t, http.MethodPut, ts.URL+"/wrappers/items", string(spec))
	if status != http.StatusCreated {
		t.Fatalf("PUT: status %d, body %v", status, info)
	}
	if info["lang"] != "elog" || info["pred"] != "item" {
		t.Fatalf("PUT response %v", info)
	}

	status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/items", page)
	if status != http.StatusOK {
		t.Fatalf("extract: status %d, body %v", status, body)
	}
	got := intSlice(t, body["nodes"])

	q, err := mdlog.Compile(elogSrc, mdlog.LangElog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Select(context.Background(), mdlog.ParseHTML(page))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("service extraction %v != direct Select %v", got, want)
	}
	if len(want) != 2 {
		t.Fatalf("fixture drifted: want 2 rows, got %v", want)
	}

	// Repeat run: served from the result memo, reflected in stats.
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/extract/items", page)
	if status != http.StatusOK {
		t.Fatalf("second extract: status %d", status)
	}
	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	wrapperStats := stats["wrappers"].(map[string]any)["items"].(map[string]any)
	queryStats := wrapperStats["query"].(map[string]any)
	if runs := queryStats["runs"].(float64); runs != 2 {
		t.Errorf("stats runs = %v, want 2", runs)
	}
	svc := stats["service"].(map[string]any)
	if docs := svc["documents"].(float64); docs != 2 {
		t.Errorf("service documents = %v, want 2", docs)
	}

	// assign and xml outputs on the same wrapper.
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extract/items?output=assign", page)
	if status != http.StatusOK {
		t.Fatalf("assign: status %d, body %v", status, body)
	}
	assign := body["assign"].(map[string]any)
	if len(intSlice(t, assign["item"])) != 2 {
		t.Errorf("assign %v, want 2 item nodes", assign)
	}
	resp, err := http.Post(ts.URL+"/extract/items?output=xml", "text/html", strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	xml := make([]byte, 1<<16)
	n, _ := resp.Body.Read(xml)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
		t.Errorf("xml content type %q", ct)
	}
	if !strings.Contains(string(xml[:n]), "<item") {
		t.Errorf("xml output %q lacks <item", xml[:n])
	}

	// Registry CRUD round-trip.
	status, one := doJSON(t, http.MethodGet, ts.URL+"/wrappers/items", "")
	if status != http.StatusOK || one["source"] != elogSrc {
		t.Errorf("GET wrapper: status %d, body %v", status, one)
	}
	status, list := doJSON(t, http.MethodGet, ts.URL+"/wrappers", "")
	if status != http.StatusOK || len(list["wrappers"].([]any)) != 1 {
		t.Errorf("list: status %d, body %v", status, list)
	}
	status, _ = doJSON(t, http.MethodDelete, ts.URL+"/wrappers/items", "")
	if status != http.StatusNoContent {
		t.Errorf("DELETE: status %d", status)
	}
	status, _ = doJSON(t, http.MethodPost, ts.URL+"/extract/items", page)
	if status != http.StatusNotFound {
		t.Errorf("extract after delete: status %d, want 404", status)
	}
}

func batchBody(t *testing.T, n int) string {
	t.Helper()
	docs := make([]map[string]any, n)
	for i := range docs {
		docs[i] = map[string]any{"id": fmt.Sprintf("p%d", i), "html": page}
	}
	b, err := json.Marshal(map[string]any{"docs": docs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func bootConfig() *Config {
	return &Config{Wrappers: []ConfigWrapper{{
		Name:        "items",
		WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: elogSrc, KeepText: true},
	}}}
}

// TestBatchJSON: a multi-document request fans across the worker pool
// and returns per-document results in input order.
func TestBatchJSON(t *testing.T) {
	_, ts := newTestServer(t, bootConfig())
	status, body := doJSON(t, http.MethodPost, ts.URL+"/batch/items", batchBody(t, 8))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i, raw := range results {
		item := raw.(map[string]any)
		if int(item["index"].(float64)) != i {
			t.Errorf("result %d out of order: %v", i, item)
		}
		if item["id"] != fmt.Sprintf("p%d", i) {
			t.Errorf("result %d id %v", i, item["id"])
		}
		if errMsg, ok := item["error"]; ok {
			t.Errorf("result %d failed: %v", i, errMsg)
		}
		if len(intSlice(t, item["nodes"])) != 2 {
			t.Errorf("result %d nodes %v, want 2", i, item["nodes"])
		}
	}
}

// TestBatchNDJSON: the streaming response format emits one JSON line
// per document, in input order.
func TestBatchNDJSON(t *testing.T) {
	_, ts := newTestServer(t, bootConfig())
	resp, err := http.Post(ts.URL+"/batch/items?format=ndjson&output=assign", "application/json", strings.NewReader(batchBody(t, 5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines int
	for sc.Scan() {
		var item map[string]any
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if int(item["index"].(float64)) != lines {
			t.Errorf("line %d has index %v", lines, item["index"])
		}
		if _, ok := item["assign"]; !ok {
			t.Errorf("line %d lacks assign: %v", lines, item)
		}
		lines++
	}
	if lines != 5 {
		t.Errorf("got %d NDJSON lines, want 5", lines)
	}
}

// TestBatchPerDocumentErrors: a wrapper whose Select cannot run (two
// patterns, no distinguished predicate) fails every document
// individually — the batch still returns one result per document
// instead of aborting.
func TestBatchPerDocumentErrors(t *testing.T) {
	cfg := &Config{Wrappers: []ConfigWrapper{{
		Name: "multi",
		WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: `
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b", x0, x).
`},
	}}}
	_, ts := newTestServer(t, cfg)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/batch/multi", batchBody(t, 3))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want one per document", len(results))
	}
	for i, raw := range results {
		item := raw.(map[string]any)
		if _, ok := item["error"]; !ok {
			t.Errorf("result %d: want a per-document error, got %v", i, item)
		}
	}
	// The same wrapper still wraps fine (no Select involved).
	status, body = doJSON(t, http.MethodPost, ts.URL+"/batch/multi?output=assign", batchBody(t, 2))
	if status != http.StatusOK {
		t.Fatalf("assign batch: status %d", status)
	}
	for i, raw := range body["results"].([]any) {
		item := raw.(map[string]any)
		if _, ok := item["error"]; ok {
			t.Errorf("assign result %d failed: %v", i, item)
		}
	}
}

// TestConcurrentTraffic hammers extract, batch, stats and re-register
// concurrently — the race-clean acceptance criterion.
func TestConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t, bootConfig())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/items", page); status != http.StatusOK {
					t.Errorf("extract: status %d body %v", status, body)
				}
				if status, _ := doJSON(t, http.MethodPost, ts.URL+"/batch/items", batchBody(t, 4)); status != http.StatusOK {
					t.Errorf("batch: status %d", status)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		spec, _ := json.Marshal(map[string]any{"lang": "elog", "source": elogSrc})
		for i := 0; i < 10; i++ {
			if status, _ := doJSON(t, http.MethodPut, ts.URL+"/wrappers/items", string(spec)); status != http.StatusOK && status != http.StatusCreated {
				t.Errorf("re-register: status %d", status)
			}
			doJSON(t, http.MethodGet, ts.URL+"/stats", "")
			if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// TestAdmissionBound: with MaxInFlight=1, a second concurrent
// extraction is shed with 503 + Retry-After instead of queuing.
func TestAdmissionBound(t *testing.T) {
	s, err := New(&Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := s.admitted(epExtract, func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	first := httptest.NewRecorder()
	go slow(first, httptest.NewRequest(http.MethodPost, "/extract/x", nil))
	<-entered

	second := httptest.NewRecorder()
	slow(second, httptest.NewRequest(http.MethodPost, "/extract/x", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	close(release)
}

// TestBatchCancellation: canceling the request context mid-batch
// yields per-document cancellation errors, not a hung response.
func TestBatchCancellation(t *testing.T) {
	s, err := New(bootConfig())
	if err != nil {
		t.Fatal(err)
	}
	wr, _ := s.reg.Get("items")
	ctx, cancel := context.WithCancel(context.Background())
	docs := make([]batchDoc, 64)
	for i := range docs {
		docs[i] = batchDoc{HTML: page}
	}
	results := s.runBatch(ctx, docs, s.onTree(extractItem(wr, outNodes)))
	if first, ok := <-results; !ok || first.Err != nil || first.Value["error"] != nil {
		t.Fatalf("first doc: %+v ok=%v", first, ok)
	}
	cancel()
	count := 1
	for item := range results { // must drain and close promptly
		count++
		_ = item
	}
	if count > len(docs) {
		t.Fatalf("yielded %d results for %d docs", count, len(docs))
	}
}

// TestMetricsText: the Prometheus rendering carries the per-wrapper
// series and service counters.
func TestMetricsText(t *testing.T) {
	_, ts := newTestServer(t, bootConfig())
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extract/items", page); status != http.StatusOK {
		t.Fatalf("extract: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`mdlogd_wrapper_runs_total{wrapper="items"} 1`,
		`mdlogd_documents_total 1`,
		`mdlogd_wrappers 1`,
		`# TYPE mdlogd_requests_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

// TestConfigLoad: file references resolve relative to the config,
// unknown fields are rejected, and New boots the wrappers.
func TestConfigLoad(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "items.elog"), []byte(elogSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "mdlogd.json")
	cfgJSON := `{
  "addr": "127.0.0.1:0",
  "workers": 2,
  "max_in_flight": 8,
  "wrappers": [
    {"name": "items", "lang": "elog", "file": "items.elog"},
    {"name": "tds", "lang": "xpath", "source": "//td[b]"}
  ]
}`
	if err := os.WriteFile(cfgPath, []byte(cfgJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Wrappers[0].Source != elogSrc {
		t.Errorf("file reference not inlined: %+v", cfg.Wrappers[0])
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.reg.Len() != 2 {
		t.Errorf("booted %d wrappers, want 2", s.reg.Len())
	}

	if _, err := ParseConfig([]byte(`{"adr": ":1"}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseConfig([]byte(`{"wrappers":[{"name":"x","lang":"nope","source":"y"}]}`)); err == nil {
		t.Error("unknown language accepted")
	}
	noLang, err := ParseConfig([]byte(`{"wrappers":[{"name":"x","source":"//td"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(noLang); err == nil {
		t.Error("boot accepted a wrapper without a language (zero value must not mean datalog)")
	}
	bad := &Config{Wrappers: []ConfigWrapper{{Name: "bad", WrapperSpec: WrapperSpec{Lang: mdlog.LangXPath, Source: "//td["}}}}
	if _, err := New(bad); err == nil {
		t.Error("boot accepted an uncompilable wrapper")
	}
}

// TestPutWrapperRejections: bad specs and names are 400s.
func TestPutWrapperRejections(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct{ name, url, body string }{
		{"bad json", ts.URL + "/wrappers/x", `{`},
		{"missing lang", ts.URL + "/wrappers/x", `{"source":"//td[b]"}`},
		{"unknown field", ts.URL + "/wrappers/x", `{"lang":"xpath","source":"//td","bogus":1}`},
		{"bad language", ts.URL + "/wrappers/x", `{"lang":"nope","source":"//td"}`},
		{"compile error", ts.URL + "/wrappers/x", `{"lang":"xpath","source":"//td["}`},
		{"bad name", ts.URL + "/wrappers/a%20b", `{"lang":"xpath","source":"//td"}`},
	} {
		if status, _ := doJSON(t, http.MethodPut, tc.url, tc.body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extract/none", page); status != http.StatusNotFound {
		t.Error("extract on unknown wrapper should 404")
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/batch/none", batchBody(t, 1)); status != http.StatusNotFound {
		t.Error("batch on unknown wrapper should 404")
	}
}

// TestBodyCaps: max_body_bytes maps to 413 on every body-carrying
// endpoint, and a negative cap means unbounded (not zero).
func TestBodyCaps(t *testing.T) {
	small := bootConfig()
	small.MaxBodyBytes = 64
	_, ts := newTestServer(t, small)
	big := strings.Repeat("x", 200)
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extract/items", big); status != http.StatusRequestEntityTooLarge {
		t.Errorf("extract over cap: status %d, want 413", status)
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/batch/items", batchBody(t, 2)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("batch over cap: status %d, want 413", status)
	}
	spec := fmt.Sprintf(`{"lang":"xpath","source":"//td[b]%s"}`, strings.Repeat(" ", 200))
	if status, _ := doJSON(t, http.MethodPut, ts.URL+"/wrappers/w", spec); status != http.StatusRequestEntityTooLarge {
		t.Errorf("put over cap: status %d, want 413", status)
	}

	unbounded := bootConfig()
	unbounded.MaxBodyBytes = -1
	_, ts2 := newTestServer(t, unbounded)
	if status, body := doJSON(t, http.MethodPost, ts2.URL+"/extract/items", page); status != http.StatusOK {
		t.Errorf("unbounded extract: status %d body %v, want 200", status, body)
	}
}

// TestServeGracefulShutdown: Serve drains and returns nil once its
// context is canceled.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(bootConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, _ := doJSON(t, http.MethodPost, url+"/extract/items", page); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

// TestOptimizerObservability: /stats and /metrics report per-wrapper
// rules-before/rules-after from the compile-time optimizer, and the
// Elog boot wrapper actually shrinks.
func TestOptimizerObservability(t *testing.T) {
	s, ts := newTestServer(t, bootConfig())

	wr, ok := s.Registry().Get("items")
	if !ok {
		t.Fatal("items wrapper missing")
	}
	rep := wr.Query.OptStats()
	if rep.RulesBefore <= rep.RulesAfter {
		t.Fatalf("optimizer did not shrink the Elog wrapper: %d -> %d", rep.RulesBefore, rep.RulesAfter)
	}

	status, body := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("/stats: %d", status)
	}
	opt, ok := body["wrappers"].(map[string]any)["items"].(map[string]any)["optimizer"].(map[string]any)
	if !ok {
		t.Fatalf("/stats lacks the optimizer block: %v", body)
	}
	if int(opt["rules_before"].(float64)) != rep.RulesBefore ||
		int(opt["rules_after"].(float64)) != rep.RulesAfter {
		t.Errorf("/stats optimizer block %v, want %d -> %d", opt, rep.RulesBefore, rep.RulesAfter)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		fmt.Sprintf(`mdlogd_wrapper_rules_before{wrapper="items"} %d`, rep.RulesBefore),
		fmt.Sprintf(`mdlogd_wrapper_rules_after{wrapper="items"} %d`, rep.RulesAfter),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

// TestWrapperSpecEngineOpt: specs select optimization levels, invalid
// levels fail compilation, the daemon-wide default applies to specs
// that leave opt empty, and every datalog-routed wrapper serves on the
// library default engine.
func TestWrapperSpecEngineOpt(t *testing.T) {
	ws := WrapperSpec{Lang: mdlog.LangElog, Source: elogSrc}
	q, err := ws.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := q.EngineName(); got != "bitmap" {
		t.Errorf("spec compiled onto %q, want the library default bitmap", got)
	}
	ws.Opt = "nope"
	if _, err := ws.Compile(); err == nil {
		t.Error("bad opt level must fail compilation")
	}

	cfg := bootConfig()
	cfg.Opt = "O0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wr, _ := s.Registry().Get("items")
	if lvl := wr.Query.OptStats().Level; lvl != mdlog.OptNone {
		t.Errorf("daemon default O0 not applied: wrapper compiled at %v", lvl)
	}
	if got := wr.Query.EngineName(); got != "bitmap" {
		t.Errorf("boot wrapper serves on %q, want bitmap", got)
	}
	bad := bootConfig()
	bad.Opt = "zz"
	if _, err := New(bad); err == nil {
		t.Error("invalid daemon opt default must fail boot")
	}
}

// TestRemovedEngineKnob: the daemon has no engine setting. An "engine"
// key is an unknown field wherever input is decoded strictly (PUT
// /wrappers, the config file, at top level and per wrapper), while a
// persisted wrappers.json that still carries one boots and serves the
// same answers as the spec without it.
func TestRemovedEngineKnob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := rawBody(t, http.MethodPut, ts.URL+"/wrappers/x", `{"lang":"xpath","source":"//td[b]","engine":"linear"}`)
	if status != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"engine\"`) {
		t.Errorf("PUT with engine: status %d, body %s; want 400 naming the unknown field", status, body)
	}
	for _, doc := range []string{
		`{"engine":"bitmap"}`,
		`{"wrappers":[{"name":"x","lang":"xpath","source":"//td","engine":"linear"}]}`,
	} {
		if _, err := ParseConfig([]byte(doc)); err == nil || !strings.Contains(err.Error(), `unknown field "engine"`) {
			t.Errorf("ParseConfig(%s) = %v, want an unknown-field error naming engine", doc, err)
		}
	}

	// A snapshot written while specs still had an engine field.
	dir := t.TempDir()
	snapshot := fmt.Sprintf(`{"format_version":%d,"wrappers":[{"name":"items","version":3,"registered":"2026-01-02T03:04:05Z","spec":{"lang":"elog","source":%q,"engine":"linear"}}]}`,
		storeFormatVersion, elogSrc)
	if err := os.WriteFile(filepath.Join(dir, storeFileName), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	_, restored := newTestServer(t, &Config{DataDir: dir})
	_, fresh := newTestServer(t, &Config{Wrappers: []ConfigWrapper{{Name: "items", WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: elogSrc}}}})
	for _, path := range []string{"/extract/items?output=assign", "/extract/items?output=xml"} {
		_, want := rawBody(t, http.MethodPost, fresh.URL+path, page)
		gotStatus, got := rawBody(t, http.MethodPost, restored.URL+path, page)
		if gotStatus != http.StatusOK || string(got) != string(want) {
			t.Errorf("%s on the restored registry: status %d\n got %s\nwant %s", path, gotStatus, got, want)
		}
	}
	if status, info := doJSON(t, http.MethodGet, restored.URL+"/wrappers/items", ""); status != http.StatusOK || info["version"].(float64) != 3 {
		t.Errorf("restored items: status %d, info %v; want version 3", status, info)
	}
}

// multiBootConfig registers a mixed fleet: two fusable wrappers (Elog⁻
// and XPath) and one unfusable (MSO automaton).
func multiBootConfig() *Config {
	return &Config{Wrappers: []ConfigWrapper{
		{Name: "items", WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: elogSrc}},
		{Name: "prices", WrapperSpec: WrapperSpec{Lang: mdlog.LangXPath, Source: `//td[b]`}},
		{Name: "bolded", WrapperSpec: WrapperSpec{Lang: mdlog.LangMSO,
			Source: `label_td(x) & exists y (child(x,y) & label_b(y))`}},
	}}
}

// TestExtractAll: one POSTed document, every registered wrapper, each
// result identical to the wrapper's own /extract.
func TestExtractAll(t *testing.T) {
	_, ts := newTestServer(t, multiBootConfig())
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK {
		t.Fatalf("extractall: status %d, body %v", status, body)
	}
	if int(body["wrappers"].(float64)) != 3 {
		t.Fatalf("wrappers = %v", body["wrappers"])
	}
	if int(body["fused"].(float64)) != 2 {
		t.Fatalf("fused = %v (want the elog + xpath members)", body["fused"])
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results: %v", results)
	}
	for _, raw := range results {
		item := raw.(map[string]any)
		name := item["wrapper"].(string)
		if errmsg, ok := item["error"]; ok {
			t.Fatalf("%s failed: %v", name, errmsg)
		}
		status, single := doJSON(t, http.MethodPost, ts.URL+"/extract/"+name, page)
		if status != http.StatusOK {
			t.Fatalf("extract/%s: status %d", name, status)
		}
		if fmt.Sprint(intSlice(t, item["nodes"])) != fmt.Sprint(intSlice(t, single["nodes"])) {
			t.Fatalf("%s: fused %v, individual %v", name, item["nodes"], single["nodes"])
		}
	}

	// The fused members recorded FusedRuns; /stats and /metrics carry
	// the counter per wrapper.
	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	wrappers := stats["wrappers"].(map[string]any)
	fr := func(name string) int {
		return int(wrappers[name].(map[string]any)["query"].(map[string]any)["fused_runs"].(float64))
	}
	if fr("items") != 1 || fr("prices") != 1 {
		t.Fatalf("fused_runs: items=%d prices=%d", fr("items"), fr("prices"))
	}
	if fr("bolded") != 0 {
		t.Fatalf("unfused wrapper counted a fused run: %d", fr("bolded"))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), `mdlogd_wrapper_fused_runs_total{wrapper="items"} 1`) {
		t.Fatalf("metrics missing fused_runs counter:\n%s", text)
	}
}

// TestExtractAllOutputAssign: ?output=assign returns each wrapper's
// pattern → nodes map; ?output=xml is rejected.
func TestExtractAllOutputAssign(t *testing.T) {
	_, ts := newTestServer(t, multiBootConfig())
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extractall?output=assign", page)
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, body)
	}
	for _, raw := range body["results"].([]any) {
		item := raw.(map[string]any)
		if _, ok := item["assign"]; !ok {
			t.Fatalf("missing assign: %v", item)
		}
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extractall?output=xml", page)
	if status != http.StatusBadRequest {
		t.Fatalf("xml output accepted: %d %v", status, body)
	}
}

// TestExtractAllEmptyRegistry: no wrappers means an empty result, not
// an error.
func TestExtractAllEmptyRegistry(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK || int(body["wrappers"].(float64)) != 0 {
		t.Fatalf("status %d, body %v", status, body)
	}
}

// TestExtractAllRegistryChange: registering a new wrapper after a
// fused pass invalidates the cached set.
func TestExtractAllRegistryChange(t *testing.T) {
	_, ts := newTestServer(t, multiBootConfig())
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/extractall", page); status != http.StatusOK {
		t.Fatalf("first extractall: %d", status)
	}
	spec, _ := json.Marshal(map[string]any{"lang": "xpath", "source": `//em`})
	if status, _ := doJSON(t, http.MethodPut, ts.URL+"/wrappers/ems", string(spec)); status != http.StatusCreated {
		t.Fatalf("PUT failed")
	}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK || int(body["wrappers"].(float64)) != 4 {
		t.Fatalf("set not rebuilt: %d %v", status, body)
	}
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/wrappers/ems", ""); status != http.StatusNoContent {
		t.Fatalf("DELETE failed")
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK || int(body["wrappers"].(float64)) != 3 {
		t.Fatalf("set not rebuilt after delete: %d %v", status, body)
	}
}

// TestBatchAll: the batch envelope against every wrapper — per
// document, per wrapper, in input order, with ids echoed.
func TestBatchAll(t *testing.T) {
	_, ts := newTestServer(t, multiBootConfig())
	status, body := doJSON(t, http.MethodPost, ts.URL+"/batchall", batchBody(t, 4))
	if status != http.StatusOK {
		t.Fatalf("batchall: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("results: %v", results)
	}
	for i, raw := range results {
		item := raw.(map[string]any)
		if int(item["index"].(float64)) != i || item["id"] != fmt.Sprintf("p%d", i) {
			t.Fatalf("doc %d out of order: %v", i, item)
		}
		inner := item["results"].([]any)
		if len(inner) != 3 {
			t.Fatalf("doc %d wrapper results: %v", i, inner)
		}
	}
}

// TestBatchAllPerDocumentErrors: an unparseable document (here: over
// the body cap via a huge doc is covered elsewhere; an empty batch)
// still yields well-formed output, and NDJSON streams items.
func TestBatchAllNDJSON(t *testing.T) {
	_, ts := newTestServer(t, multiBootConfig())
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/batchall?format=ndjson", strings.NewReader(batchBody(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var item map[string]any
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if int(item["index"].(float64)) != n {
			t.Fatalf("line %d: %v", n, item)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d lines", n)
	}
}

// TestSubsumptionEndToEnd: register a datalog wrapper plus a
// semantically equal but syntactically different variant; the fused
// all-wrapper pass must serve the variant by projection (zero rules of
// its own), /extractall must return identical results for both, and
// /wrappers, /stats and /metrics must surface the subsumption.
func TestSubsumptionEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, nil)

	put := func(name, source string) {
		t.Helper()
		spec, _ := json.Marshal(map[string]any{"lang": "datalog", "source": source})
		if status, body := doJSON(t, http.MethodPut, ts.URL+"/wrappers/"+name, string(spec)); status != http.StatusCreated {
			t.Fatalf("PUT %s: status %d, body %v", name, status, body)
		}
	}
	put("base", `q(X) :- firstchild(X,Y), label_td(Y). ?- q.`)
	// Duplicated fragment + defensive dom(X): only the containment
	// checker proves this equal to base.
	put("variant", `q(X) :- dom(X), firstchild(X,Z), label_td(Z), firstchild(X,W), label_td(W). ?- q.`)

	// /wrappers surfaces the compile decision.
	status, list := doJSON(t, http.MethodGet, ts.URL+"/wrappers", "")
	if status != http.StatusOK {
		t.Fatalf("GET /wrappers: %d", status)
	}
	modes := map[string]string{}
	shared := map[string]string{}
	for _, raw := range list["wrappers"].([]any) {
		info := raw.(map[string]any)
		sub, ok := info["subsume"].(map[string]any)
		if !ok {
			t.Fatalf("wrapper %v lacks subsume info: %v", info["name"], info)
		}
		modes[info["name"].(string)] = sub["mode"].(string)
		if sw, ok := sub["shared_with"].(string); ok {
			shared[info["name"].(string)] = sw
		}
	}
	if modes["base"] != "evaluated" || modes["variant"] != "subsumed" {
		t.Fatalf("modes: %v", modes)
	}
	if shared["variant"] != "base" {
		t.Fatalf("shared_with: %v", shared)
	}

	// /extractall: both wrappers answer, identically, in one pass.
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK {
		t.Fatalf("extractall: status %d, body %v", status, body)
	}
	byName := map[string][]int{}
	for _, raw := range body["results"].([]any) {
		res := raw.(map[string]any)
		byName[res["wrapper"].(string)] = intSlice(t, res["nodes"])
	}
	if len(byName["base"]) == 0 {
		t.Fatalf("fixture drifted: base selects nothing: %v", body)
	}
	if fmt.Sprint(byName["base"]) != fmt.Sprint(byName["variant"]) {
		t.Fatalf("equivalent wrappers disagree: %v vs %v", byName["base"], byName["variant"])
	}
	// Cross-check against a direct individual evaluation of the variant.
	q, err := mdlog.Compile(`q(X) :- dom(X), firstchild(X,Z), label_td(Z), firstchild(X,W), label_td(W). ?- q.`, mdlog.LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Select(context.Background(), mdlog.ParseHTML(page))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(byName["variant"]) != fmt.Sprint(want) {
		t.Fatalf("projection answer %v != direct evaluation %v", byName["variant"], want)
	}

	// /stats: the variant's runs are flagged subsumed; the fusion block
	// records the checker's work.
	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	wrappers := stats["wrappers"].(map[string]any)
	variant := wrappers["variant"].(map[string]any)
	if sr := variant["query"].(map[string]any)["subsumed_runs"].(float64); sr < 1 {
		t.Fatalf("variant subsumed_runs = %v, want >= 1", sr)
	}
	if sr := wrappers["base"].(map[string]any)["query"].(map[string]any)["subsumed_runs"].(float64); sr != 0 {
		t.Fatalf("base subsumed_runs = %v, want 0", sr)
	}
	fusion, ok := stats["fusion"].(map[string]any)
	if !ok {
		t.Fatalf("stats lacks fusion block: %v", stats)
	}
	if fusion["subsumed_preds"].(float64) < 1 || fusion["subsume_checked"].(float64) < 1 {
		t.Fatalf("fusion block: %v", fusion)
	}
	// Both wrappers were compiled since the last fused build, so the
	// build unfolded both.
	if fusion["unfolded"] != fusion["members"] {
		t.Fatalf("fusion block unfolded %v of %v members", fusion["unfolded"], fusion["members"])
	}

	// /metrics: the counters exist with the right values.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`mdlogd_wrapper_subsumed_runs_total{wrapper="variant"} 1`,
		`mdlogd_wrapper_subsumed_runs_total{wrapper="base"} 0`,
		`mdlogd_wrapper_subsumed{wrapper="variant"} 1`,
		`mdlogd_wrapper_subsumed{wrapper="base"} 0`,
		`mdlogd_subsume_merged 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}

	// Registry mutation rebuilds the subsumption index: delete the
	// representative and the variant must evaluate its own rules again.
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/wrappers/base", ""); status != http.StatusNoContent {
		t.Fatalf("DELETE base: %d", status)
	}
	status, list = doJSON(t, http.MethodGet, ts.URL+"/wrappers", "")
	if status != http.StatusOK {
		t.Fatalf("GET /wrappers: %d", status)
	}
	for _, raw := range list["wrappers"].([]any) {
		info := raw.(map[string]any)
		if sub, ok := info["subsume"].(map[string]any); ok && sub["mode"] == "subsumed" {
			t.Fatalf("wrapper %v still subsumed after representative deleted", info["name"])
		}
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/extractall", page)
	if status != http.StatusOK {
		t.Fatalf("extractall after delete: %d", status)
	}
	for _, raw := range body["results"].([]any) {
		res := raw.(map[string]any)
		if res["wrapper"] == "variant" {
			if fmt.Sprint(intSlice(t, res["nodes"])) != fmt.Sprint(want) {
				t.Fatalf("variant after delete: %v, want %v", res["nodes"], want)
			}
		}
	}
}
