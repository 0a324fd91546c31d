package main

// Boot smoke test: mdlogd comes up from a config file, serves an
// extraction, and shuts down cleanly on context cancellation (the
// signal path minus the signal).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunBootServeShutdown(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "items.elog"), []byte(
		`item(x) :- root(x0), subelem("html.body.table.tr", x0, x).`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pick a free port, then release it for the daemon. (Minimal race
	// window; fine for a smoke test.)
	cfgPath := filepath.Join(dir, "mdlogd.json")
	cfg := fmt.Sprintf(`{
  "addr": "127.0.0.1:%d",
  "workers": 2,
  "wrappers": [{"name": "items", "lang": "elog", "file": "items.elog"}]
}`, freePort(t))
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		Addr string `json:"addr"`
	}
	if err := json.Unmarshal([]byte(cfg), &loaded); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-config", cfgPath}, os.Stderr) }()

	url := "http://" + loaded.Addr
	page := `<html><body><table><tr><td>x</td></tr><tr><td>y</td></tr></table></body></html>`
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(url+"/extract/items", "text/html", strings.NewReader(page))
		if err == nil {
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("extract: status %d body %v", resp.StatusCode, body)
			}
			if nodes := body["nodes"].([]any); len(nodes) != 2 {
				t.Fatalf("extract nodes %v, want 2 rows", nodes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestRunBadConfig(t *testing.T) {
	err := run(context.Background(), []string{"-config", filepath.Join(t.TempDir(), "missing.json")}, os.Stderr)
	if err == nil {
		t.Fatal("want an error for a missing config file")
	}
}

// TestRunRejectsEngine: the daemon has no engine setting, so both
// the removed -engine flag and an "engine" config key fail before
// the daemon binds anything.
func TestRunRejectsEngine(t *testing.T) {
	var stderr strings.Builder
	err := run(context.Background(), []string{"-engine", "bitmap"}, &stderr)
	if !errors.Is(err, errFlagParse) || !strings.Contains(stderr.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine: got %v (stderr: %s), want a flag-parse error", err, stderr.String())
	}
	cfg := filepath.Join(t.TempDir(), "mdlogd.json")
	if err := os.WriteFile(cfg, []byte(`{"addr":"127.0.0.1:0","engine":"linear"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-config", cfg}, os.Stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown field "engine"`) {
		t.Errorf("config with engine: got %v, want an unknown-field error", err)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}
