package service

// Shard-mode tests: the consistent-hash ring's balance and
// minimal-movement properties, the worker-side ownership guard, and
// the front tier end-to-end (routing, fan-out CRUD, batch splitting,
// backpressure, drain/failover).

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// ringKeys returns n deterministic pseudo-random 64-bit keys.
func ringKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(42))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// TestRingBalance is the property test from the issue: over 10k
// hashed documents and 4 workers, every worker owns its fair share
// ±20%.
func TestRingBalance(t *testing.T) {
	const keys = 10_000
	const workers = 4
	r := NewRing(workers, 0)
	counts := make([]int, workers)
	for _, k := range ringKeys(keys) {
		counts[r.Lookup(k)]++
	}
	fair := float64(keys) / workers
	for i, c := range counts {
		if dev := (float64(c) - fair) / fair; dev < -0.20 || dev > 0.20 {
			t.Errorf("worker %d owns %d of %d keys (%.1f%% off fair share; bound ±20%%); counts %v",
				i, c, keys, dev*100, counts)
		}
	}
}

// TestRingBalanceRealHashes repeats the balance property over actual
// document content hashes (HashDoc → ringKey), not synthetic keys.
func TestRingBalanceRealHashes(t *testing.T) {
	const keys = 10_000
	const workers = 4
	r := NewRing(workers, 0)
	counts := make([]int, workers)
	var buf [8]byte
	for i := 0; i < keys; i++ {
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		doc := fmt.Sprintf("<html><body>doc %x</body></html>", buf)
		counts[r.Lookup(HashDoc([]byte(doc)).ringKey())]++
	}
	fair := float64(keys) / workers
	for i, c := range counts {
		if dev := (float64(c) - fair) / fair; dev < -0.20 || dev > 0.20 {
			t.Errorf("worker %d owns %d of %d content hashes (%.1f%% off fair); counts %v",
				i, c, keys, dev*100, counts)
		}
	}
}

// TestRingMinimalMovement: growing 4 → 5 workers may move only the
// keys the new worker takes (≈1/5, generously bounded at 1.5×fair),
// and every moved key must move TO the new worker; shrinking 5 → 4
// moves only the removed worker's keys, redistributed across the
// survivors.
func TestRingMinimalMovement(t *testing.T) {
	const keys = 10_000
	keysList := ringKeys(keys)
	r4, r5 := NewRing(4, 0), NewRing(5, 0)

	moved := 0
	for _, k := range keysList {
		o4, o5 := r4.Lookup(k), r5.Lookup(k)
		if o4 != o5 {
			moved++
			if o5 != 4 {
				t.Fatalf("key %x moved %d -> %d on grow; only moves to the new worker 4 are allowed", k, o4, o5)
			}
		}
	}
	fair := keys / 5
	if moved > fair*3/2 {
		t.Errorf("grow 4->5 moved %d keys, want <= %d (1.5x fair share)", moved, fair*3/2)
	}
	if moved == 0 {
		t.Error("grow 4->5 moved nothing; the new worker owns no keys")
	}

	// Shrink is the same comparison read the other way: keys owned by
	// worker 4 in r5 must scatter; all others stay put.
	for _, k := range keysList {
		o5, o4 := r5.Lookup(k), r4.Lookup(k)
		if o5 != 4 && o5 != o4 {
			t.Fatalf("key %x owned by surviving worker %d moved to %d on shrink", k, o5, o4)
		}
	}
}

// TestRingFailoverWalk: a dead worker's keys spill to survivors, and
// keys owned by live workers do not move.
func TestRingFailoverWalk(t *testing.T) {
	r := NewRing(4, 0)
	alive := func(dead int) func(int) bool {
		return func(i int) bool { return i != dead }
	}
	spilled := make([]int, 4)
	for _, k := range ringKeys(5_000) {
		owner := r.Lookup(k)
		got := r.LookupAlive(k, alive(2))
		if owner != 2 {
			if got != owner {
				t.Fatalf("key %x owned by live worker %d rerouted to %d", k, owner, got)
			}
			continue
		}
		if got == 2 {
			t.Fatalf("key %x still routed to dead worker", k)
		}
		spilled[got]++
	}
	for i, c := range spilled {
		if i != 2 && c == 0 {
			t.Errorf("failover spilled nothing to worker %d (spread %v); spill should scatter", i, spilled)
		}
	}
	if r.LookupAlive(1, func(int) bool { return false }) != -1 {
		t.Error("LookupAlive with no one alive should return -1")
	}
}

func TestParseShardOf(t *testing.T) {
	idx, n, err := ParseShardOf("2/4")
	if err != nil || idx != 2 || n != 4 {
		t.Fatalf("ParseShardOf(2/4) = %d, %d, %v", idx, n, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/b", "1/0", "1/-2"} {
		if _, _, err := ParseShardOf(bad); err == nil {
			t.Errorf("ParseShardOf(%q) accepted", bad)
		}
	}
}

// TestShardOwnershipGuard: a worker booted -shard-of rejects documents
// the ring assigns elsewhere with 421, accepts its own, and counts the
// misroutes.
// shardDocs returns one document owned by shard 0 of an n-shard ring
// and one owned by some other shard.
func shardDocs(n int) (mine, theirs string) {
	ring := NewRing(n, 0)
	for i := 0; mine == "" || theirs == ""; i++ {
		doc := fmt.Sprintf("<html><body><table><tr><td>doc %d</td></tr></table></body></html>", i)
		if ring.Lookup(HashDoc([]byte(doc)).ringKey()) == 0 {
			if mine == "" {
				mine = doc
			}
		} else if theirs == "" {
			theirs = doc
		}
	}
	return mine, theirs
}

func TestShardOwnershipGuard(t *testing.T) {
	const n = 4
	mine, theirs := shardDocs(n)
	cfg := bootConfig()
	cfg.ShardOf = "0/" + strconv.Itoa(n)
	_, ts := newTestServer(t, cfg)

	if status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/items", mine); status != http.StatusOK {
		t.Fatalf("owned doc: status %d, body %v", status, body)
	}
	status, body := doJSON(t, http.MethodPost, ts.URL+"/extract/items", theirs)
	if status != http.StatusMisdirectedRequest {
		t.Fatalf("foreign doc: status %d, want 421; body %v", status, body)
	}
	status, stats := doJSON(t, http.MethodGet, ts.URL+"/stats", "")
	if status != http.StatusOK {
		t.Fatal("stats failed")
	}
	shard := stats["service"].(map[string]any)["shard"].(map[string]any)
	if shard["index"].(float64) != 0 || shard["of"].(float64) != n || shard["misrouted"].(float64) != 1 {
		t.Errorf("shard stats %v, want index=0 of=%d misrouted=1", shard, n)
	}
}

// shardServer boots worker 0 of n behind the ownership guard.
func shardServer(t *testing.T, n int) string {
	t.Helper()
	cfg := bootConfig()
	cfg.ShardOf = "0/" + strconv.Itoa(n)
	_, ts := newTestServer(t, cfg)
	return ts.URL
}

// serviceCounter reads one counter of the /stats service section.
func serviceCounter(t *testing.T, base string, path ...string) float64 {
	t.Helper()
	status, stats := doJSON(t, http.MethodGet, base+"/stats", "")
	if status != http.StatusOK {
		t.Fatalf("stats: status %d", status)
	}
	v := stats["service"]
	for _, k := range path {
		v = v.(map[string]any)[k]
	}
	return v.(float64)
}

// TestShardBatchGuardAndDedup: /batch on a shard worker resolves each
// document like /extract does — a foreign-owned document fails only
// its own entry with the misroute error and counts as misrouted, and
// byte-identical documents in one batch share one parse.
func TestShardBatchGuardAndDedup(t *testing.T) {
	mine, theirs := shardDocs(2)
	base := shardServer(t, 2)
	b, _ := json.Marshal(map[string]any{"docs": []map[string]any{
		{"id": "a", "html": mine},
		{"id": "x", "html": theirs},
		{"id": "b", "html": mine},
	}})
	status, body := doJSON(t, http.MethodPost, base+"/batch/items", string(b))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, raw := range results {
		item := raw.(map[string]any)
		if int(item["index"].(float64)) != i {
			t.Errorf("result %d has index %v (order lost)", i, item["index"])
		}
		msg, failed := item["error"].(string)
		if want := i == 1; failed != want {
			t.Errorf("result %d: failed=%v, want %v (%v)", i, failed, want, item)
		} else if failed && !strings.Contains(msg, "maps to shard") {
			t.Errorf("result %d: want the misroute error, got %q", i, msg)
		}
	}
	if got := serviceCounter(t, base, "shard", "misrouted"); got != 1 {
		t.Errorf("misrouted = %v, want 1", got)
	}
	cs := docCacheCounters(t, base)
	if cs["entries"] != 1 || cs["misses"] != 1 || cs["hits"] != 1 {
		t.Errorf("batch cache counters %v, want entries=1 misses=1 hits=1", cs)
	}
}

// TestMisrouteCountsAsDocumentError: a misrouted document is a failed
// document on every endpoint — /extract's 421 and a /batchall entry
// each count once in document_errors.
func TestMisrouteCountsAsDocumentError(t *testing.T) {
	_, theirs := shardDocs(2)
	base := shardServer(t, 2)
	if status, body := doJSON(t, http.MethodPost, base+"/extract/items", theirs); status != http.StatusMisdirectedRequest {
		t.Fatalf("extract: status %d, want 421; body %v", status, body)
	}
	b, _ := json.Marshal(map[string]any{"docs": []map[string]any{{"html": theirs}}})
	if status, body := doJSON(t, http.MethodPost, base+"/batchall", string(b)); status != http.StatusOK {
		t.Fatalf("batchall: status %d, body %v", status, body)
	}
	if got := serviceCounter(t, base, "document_errors"); got != 2 {
		t.Errorf("document_errors = %v, want 2", got)
	}
	if got := serviceCounter(t, base, "shard", "misrouted"); got != 2 {
		t.Errorf("misrouted = %v, want 2", got)
	}
}

// fleet boots n workers with -shard-of plus a front tier over them,
// all on httptest servers, and returns the front's base URL.
func fleet(t *testing.T, n int, workerCfg func(i int) *Config) (*Front, string, []*Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		cfg := workerCfg(i)
		cfg.ShardOf = fmt.Sprintf("%d/%d", i, n)
		s, ts := newTestServer(t, cfg)
		urls[i], servers[i] = ts.URL, s
	}
	f, err := NewFront(FrontConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	t.Cleanup(fts.Close)
	return f, fts.URL, servers
}

// TestFrontEndToEnd: register through the front (fan-out), extract
// many documents through it (content routing), and require every
// worker-side ownership guard to stay silent while results match a
// direct evaluation.
func TestFrontEndToEnd(t *testing.T) {
	f, front, servers := fleet(t, 4, func(int) *Config { return &Config{} })

	spec, _ := json.Marshal(map[string]any{"lang": "elog", "source": elogSrc})
	status, body := doJSON(t, http.MethodPut, front+"/wrappers/items", string(spec))
	if status != http.StatusCreated {
		t.Fatalf("front PUT: status %d, body %v", status, body)
	}
	for i, s := range servers {
		if s.Registry().Len() != 1 {
			t.Fatalf("worker %d registry len %d after fan-out PUT", i, s.Registry().Len())
		}
	}

	// Extract 40 distinct documents twice; the repeat of each must land
	// on the same worker (its cache shard) — visible as zero misroutes
	// and one dedup hit per repeat.
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = fmt.Sprintf("<html><body><table><tr><td>row %d</td></tr></table></body></html>", i)
	}
	for round := 0; round < 2; round++ {
		for i, doc := range docs {
			status, body := doJSON(t, http.MethodPost, front+"/extract/items", doc)
			if status != http.StatusOK {
				t.Fatalf("round %d doc %d: status %d, body %v", round, i, status, body)
			}
			if len(intSlice(t, body["nodes"])) != 1 {
				t.Fatalf("round %d doc %d: nodes %v, want 1", round, i, body["nodes"])
			}
		}
	}
	var hits, misrouted int64
	touched := 0
	for _, s := range servers {
		cs := s.docs.stats()
		hits += cs.hits
		misrouted += s.shardMisrouted.Load()
		if cs.entries > 0 {
			touched++
		}
	}
	if misrouted != 0 {
		t.Errorf("front routing tripped %d worker ownership guards", misrouted)
	}
	if hits != int64(len(docs)) {
		t.Errorf("repeat round produced %d dedup hits, want %d (stable routing)", hits, len(docs))
	}
	if touched < 2 {
		t.Errorf("only %d of 4 workers received documents; routing is not spreading", touched)
	}

	// GET /wrappers proxies to a worker.
	status, list := doJSON(t, http.MethodGet, front+"/wrappers", "")
	if status != http.StatusOK || len(list["wrappers"].([]any)) != 1 {
		t.Errorf("front list: status %d, body %v", status, list)
	}
	// /fleet reports all four workers healthy-by-default.
	status, fl := doJSON(t, http.MethodGet, front+"/fleet", "")
	if status != http.StatusOK || len(fl["workers"].([]any)) != 4 {
		t.Errorf("fleet: status %d, body %v", status, fl)
	}
	_ = f
}

// TestFrontBatchSplit: one /batchall envelope splits into per-worker
// sub-batches and merges back in input order, duplicates dedup on
// their owning worker.
func TestFrontBatchSplit(t *testing.T) {
	_, front, servers := fleet(t, 4, func(int) *Config { return bootConfig() })
	docs := make([]map[string]any, 20)
	for i := range docs {
		html := fmt.Sprintf("<html><body><table><tr><td>batch %d</td></tr></table></body></html>", i%10)
		docs[i] = map[string]any{"id": fmt.Sprintf("d%d", i), "html": html}
	}
	b, _ := json.Marshal(map[string]any{"docs": docs})
	status, body := doJSON(t, http.MethodPost, front+"/batchall", string(b))
	if status != http.StatusOK {
		t.Fatalf("front batchall: status %d, body %v", status, body)
	}
	results := body["results"].([]any)
	if len(results) != len(docs) {
		t.Fatalf("got %d results, want %d", len(results), len(docs))
	}
	for i, raw := range results {
		item := raw.(map[string]any)
		if int(item["index"].(float64)) != i || item["id"] != docs[i]["id"] {
			t.Errorf("result %d: index %v id %v (merge lost input order)", i, item["index"], item["id"])
		}
		if errMsg, ok := item["error"]; ok {
			t.Errorf("result %d failed: %v", i, errMsg)
		}
	}
	var hits, misrouted int64
	for _, s := range servers {
		hits += s.docs.stats().hits
		misrouted += s.shardMisrouted.Load()
	}
	if misrouted != 0 {
		t.Errorf("batch split misrouted %d documents", misrouted)
	}
	if hits != 10 {
		t.Errorf("duplicate halves produced %d dedup hits, want 10", hits)
	}
}

// TestFrontBackpressure: at the per-worker in-flight bound the front
// sheds with 503 and an integer Retry-After instead of queueing.
func TestFrontBackpressure(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
			return
		}
		<-block
		writeJSON(w, http.StatusOK, map[string]any{"nodes": []int{}})
	}))
	defer slow.Close()
	defer once.Do(func() { close(block) })

	f, err := NewFront(FrontConfig{Workers: []string{slow.URL}, WorkerInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()

	go http.Post(fts.URL+"/extract/items", "text/html", strings.NewReader(page))
	// Wait until the first request actually holds the worker slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.workers[0].sem) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(fts.URL+"/extract/items", "text/html", strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer of seconds", ra)
	}
	once.Do(func() { close(block) })
}

// TestFrontDrainAndFailover: draining a worker reroutes its documents
// to survivors without 421s from THEM (they see foreign keys only
// because their guard is off in this fleet — so run guardless), and
// undraining restores routing.
func TestFrontDrainAndFailover(t *testing.T) {
	// Workers run WITHOUT the -shard-of guard here: draining
	// deliberately reroutes keys to non-owners, which a guard would
	// (correctly) reject with 421. Fleets that drain workers either run
	// guardless or undrain before the cache-purity guard matters — the
	// guard exists to catch misconfigured routing, not failover.
	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, bootConfig())
		urls[i] = ts.URL
	}
	f2, err := NewFront(FrontConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(f2.Handler())
	defer fts.Close()
	front := fts.URL

	if status, body := doJSON(t, http.MethodPost, front+"/fleet/0/drain", ""); status != http.StatusOK || body["draining"] != true {
		t.Fatalf("drain: status %d, body %v", status, body)
	}
	// Every document now lands on worker 1.
	for i := 0; i < 10; i++ {
		doc := fmt.Sprintf("<html><body><table><tr><td>drain %d</td></tr></table></body></html>", i)
		if status, body := doJSON(t, http.MethodPost, front+"/extract/items", doc); status != http.StatusOK {
			t.Fatalf("extract under drain: status %d, body %v", status, body)
		}
	}
	if fwd := f2.workers[0].forwarded.Load(); fwd != 0 {
		t.Errorf("draining worker still received %d requests", fwd)
	}
	if status, body := doJSON(t, http.MethodPost, front+"/fleet/0/undrain", ""); status != http.StatusOK || body["draining"] != false {
		t.Fatalf("undrain: status %d, body %v", status, body)
	}
	if status, _ := doJSON(t, http.MethodPost, front+"/fleet/9/drain", ""); status != http.StatusNotFound {
		t.Errorf("drain of unknown worker: status %d, want 404", status)
	}

	// Both drained: shed with integer Retry-After.
	doJSON(t, http.MethodPost, front+"/fleet/0/drain", "")
	doJSON(t, http.MethodPost, front+"/fleet/1/drain", "")
	req, _ := http.NewRequest(http.MethodPost, front+"/extract/items", strings.NewReader(page))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fully drained fleet: status %d, want 503", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q is not a positive integer", resp.Header.Get("Retry-After"))
	}
}

// TestFrontSessionAffinity: document sessions route by id — PUT,
// PATCH and extractall for one id land on one worker, so the session
// is usable through the front.
func TestFrontSessionAffinity(t *testing.T) {
	_, front, servers := fleet(t, 3, func(int) *Config { return bootConfig() })
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("sess%d", i)
		if status, body := doJSON(t, http.MethodPut, front+"/documents/"+id, page); status != http.StatusCreated {
			t.Fatalf("PUT %s: status %d, body %v", id, status, body)
		}
		status, body := doJSON(t, http.MethodPost, front+"/documents/"+id+"/extractall", "")
		if status != http.StatusOK {
			t.Fatalf("extractall %s: status %d, body %v (session affinity broken?)", id, status, body)
		}
		if status, _ := doJSON(t, http.MethodDelete, front+"/documents/"+id, ""); status != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d", id, status)
		}
	}
	total := 0
	for _, s := range servers {
		total += s.sessions.len()
	}
	if total != 0 {
		t.Errorf("%d sessions leaked across the fleet", total)
	}
}
