package main

// CLI smoke tests: run() against fixture documents, golden output
// (regenerate with `go test ./cmd/mdlog -update`).

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	mdlog "mdlog"
	"mdlog/internal/eval"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGoldenDatalogOnHTML(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-program", "testdata/wrapper.dl", "-html", "testdata/page.html"}, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "datalog_html.golden", out.Bytes())
}

func TestGoldenXPathMultiDoc(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-lang", "xpath", "-query", "//td[b]",
		"-html", "testdata/page.html", "-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "xpath_multidoc.golden", out.Bytes())
}

func TestGoldenTermTree(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-query", "p(X) :- label_b(X). ?- p.", "-tree", "a(b,c(b))", "-print-tree"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "term_tree.golden", out.Bytes())
}

func TestGoldenSpanner(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-lang", "spanner", "-program", "testdata/prices.span", "-html", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "spanner_html.golden", out.Bytes())
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-tree", "a"}, &out, &errb); err == nil {
		t.Error("want an error without -program/-query")
	}
	if err := run([]string{"-query", "p(X) :- q(X).", "-lang", "nope", "-tree", "a"}, &out, &errb); err == nil {
		t.Error("want an error for an unknown language")
	}
	if err := run([]string{"-query", "p(X) :- label_a(X). ?- p."}, &out, &errb); err == nil {
		t.Error("want an error without documents")
	}
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Errorf("-h should print usage and succeed, got %v", err)
	}
	// There is no -engine flag: the CLI always runs the library default engine.
	errb.Reset()
	err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-engine", "bitmap"}, &out, &errb)
	if !errors.Is(err, errFlagParse) || !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine must fail flag parsing, got %v (stderr: %s)", err, errb.String())
	}
	if err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-O", "7"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
}

// TestEngineOptMatrix runs one query through the CLI at both
// optimization levels; stdout must be identical across levels and
// match every evaluation engine's answer on the raw program.
func TestEngineOptMatrix(t *testing.T) {
	src, err := os.ReadFile("testdata/wrapper.dl")
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile("testdata/page.html")
	if err != nil {
		t.Fatal(err)
	}
	p, err := mdlog.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	doc := mdlog.ParseHTML(string(page))
	for _, o := range []string{"-O0", "-O1"} {
		var out, errb bytes.Buffer
		args := []string{"-program", "testdata/wrapper.dl", "-html", "testdata/page.html", o}
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", o, err, errb.String())
		}
		answers := map[string][]int{}
		for _, e := range []mdlog.Engine{mdlog.EngineLinear, mdlog.EngineBitmap} {
			q, err := mdlog.CompileProgram(p, mdlog.WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			if answers[e.String()], err = q.Select(context.Background(), doc); err != nil {
				t.Fatal(err)
			}
		}
		// The set-oriented engines read child/2 directly, no TMNF.
		for _, e := range []eval.Engine{eval.EngineSemiNaive, eval.EngineNaive, eval.EngineLIT} {
			db, err := eval.EvalOnTree(p, doc, e)
			if err != nil {
				t.Fatalf("%v: %v", e, err)
			}
			answers[e.String()] = db.UnarySet(p.Query)
		}
		for e, ids := range answers {
			if want := fmt.Sprintf("%s: %v\n", p.Query, ids); out.String() != want {
				t.Errorf("%s prints %q, %s engine selects %q", o, out.String(), e, want)
			}
		}
	}
}

func TestGoldenMultiProgramFused(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-lang", "xpath", "-query", "//td[b]", "-query", "//td",
		"-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "multi_program.golden", out.Bytes())
}

// TestGoldenExplainSubsumed: -explain prints the compile plan; the
// second program is a dom-padded, fragment-duplicated variant of the
// first, so the containment checker proves it equivalent and the plan
// shows it answered purely by projection.
func TestGoldenExplainSubsumed(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-explain",
		"-query", "q(X) :- firstchild(X,Y), label_td(Y). ?- q.",
		"-query", "q(X) :- dom(X), firstchild(X,Y), label_td(Y), firstchild(X,Z), label_td(Z). ?- q.",
		"-html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "explain_subsumed.golden", out.Bytes())
}

func TestExplainSingleProgram(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-explain", "-program", "testdata/wrapper.dl", "-html", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	if !strings.HasPrefix(out.String(), "plan: wrapper on engine ") {
		t.Errorf("single-program -explain must lead with the plan line, got %q", out.String())
	}
}

// TestWatchMode: -watch re-extracts when the watched file changes and
// exits after -watch-count passes, so the whole loop is observable.
func TestWatchMode(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.term")
	if err := os.WriteFile(doc, []byte("a(b,c)"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-query", "p(X) :- label_b(X). ?- p.",
			"-treefile", doc,
			"-watch", "-watch-interval", "5ms", "-watch-count", "2",
		}, &out, &errb)
	}()
	// Give pass 1 a head start, then grow the file; the poll loop
	// compares size as well as mtime, so this registers regardless of
	// filesystem timestamp granularity.
	time.Sleep(50 * time.Millisecond)
	if err := os.WriteFile(doc, []byte("a(b,c(b,b))"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v (stderr: %s)", err, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch loop did not exit after -watch-count passes")
	}
	want := "[pass 1] p: [1]\n[pass 2] p: [1 3 4]\n"
	if out.String() != want {
		t.Errorf("watch output = %q, want %q", out.String(), want)
	}
}

// syncBuffer is a bytes.Buffer safe to read while run writes to it
// from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestWatchModeSkipsHalfWrittenFile: a poll that lands between
// os.WriteFile's truncate and its write sees an empty file. The loop
// must report that load error and wait for the next change instead of
// exiting, and the failed load must not count as a pass.
func TestWatchModeSkipsHalfWrittenFile(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.term")
	if err := os.WriteFile(doc, []byte("a(b,c)"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-query", "p(X) :- label_b(X). ?- p.",
			"-treefile", doc,
			"-watch", "-watch-interval", "5ms", "-watch-count", "2",
		}, &out, &errb)
	}()
	waitFor := func(what string, b *syncBuffer, sub string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !strings.Contains(b.String(), sub); {
			select {
			case err := <-done:
				t.Fatalf("watch loop exited before %s: %v (stdout %q, stderr %q)", what, err, out.String(), errb.String())
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s after 10s (stdout %q, stderr %q)", what, out.String(), errb.String())
			}
		}
	}
	waitFor("pass 1", &out, "[pass 1]")
	if err := os.WriteFile(doc, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor("load error", &errb, "expected label")
	if err := os.WriteFile(doc, []byte("a(b,c(b,b))"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%v (stderr: %s)", err, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch loop did not exit after -watch-count passes")
	}
	if want := "[pass 1] p: [1]\n[pass 2] p: [1 3 4]\n"; out.String() != want {
		t.Errorf("watch output = %q, want %q", out.String(), want)
	}
}

func TestWatchModeErrors(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-tree", "a", "-watch"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "file-backed") {
		t.Errorf("-watch with -tree literal must error, got %v", err)
	}
	err = run([]string{"-query", "p(X) :- label_a(X). ?- p.", "-watch"}, &out, &errb)
	if err == nil {
		t.Error("-watch without documents must error")
	}
}

func TestMultiProgramMixedFlagsRejected(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-query", "//td", "-program", "testdata/wrapper.dl", "-tree", "a"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "alternatives") {
		t.Errorf("mixing -query and -program must error, got %v", err)
	}
}
