package main

// CLI smoke tests: run() with golden output (regenerate with
// `go test ./cmd/msoc -update`).

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestGoldenEvalCrossCheck runs both routes (automaton and Theorem 4.4
// datalog translation) on a fixture tree; identical selections are
// part of the golden file.
func TestGoldenEvalCrossCheck(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-formula", "leaf(x)", "-alphabet", "a,b", "-tree", "a(b,a(b,b))"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "leaf_eval.golden", out.Bytes())
}

func TestGoldenStats(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-formula", "exists y (child(x,y) & label_b(y))", "-alphabet", "a,b", "-stats"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "child_b_stats.golden", out.Bytes())
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Error("want an error without -formula")
	}
	if err := run([]string{"-formula", "leaf(x", "-alphabet", "a"}, &out, &errb); err == nil {
		t.Error("want a parse error")
	}
	// There is no -engine flag: the CLI always runs the library default engine.
	errb.Reset()
	err := run([]string{"-formula", "leaf(x)", "-alphabet", "a,b", "-engine", "bitmap"}, &out, &errb)
	if !errors.Is(err, errFlagParse) || !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine must fail flag parsing, got %v (stderr: %s)", err, errb.String())
	}
	if err := run([]string{"-formula", "leaf(x)", "-alphabet", "a,b", "-O", "zz"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
}
