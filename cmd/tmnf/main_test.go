package main

// CLI smoke tests: run() with golden output (regenerate with
// `go test ./cmd/tmnf -update`). The full program print is not
// goldened — helper-name assignment depends on rewrite order — but
// the size statistics and the -tree verification output are stable.

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

func TestGoldenStats(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-program", "testdata/wrapper.dl", "-stats"}, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "wrapper_stats.golden", out.Bytes())
}

func TestGoldenVerifyOnTree(t *testing.T) {
	for _, o := range []string{"-O0", "-O1"} {
		var out, errb bytes.Buffer
		args := []string{"-program", "testdata/wrapper.dl", "-tree", "a(td(b),td(c),td(b))", "-pred", "q", o}
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", o, err, errb.String())
		}
		checkGolden(t, "wrapper_verify.golden", out.Bytes())
	}
}

// TestPropositionalProgram pins the bridging path: a program with a
// propositional helper (legal monadic datalog, outside Definition
// 5.1's syntax) must normalize and verify instead of tripping the
// output validator.
func TestPropositionalProgram(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "prop.dl")
	src := "p(X) :- child(X,Y), label_a(Y), s0.\ns0 :- root(X), label_b(X).\n?- p.\n"
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-program", prog, "-stats"}, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	out.Reset()
	if err := run([]string{"-program", prog, "-tree", "b(a,b(a))", "-pred", "p"}, &out, &errb); err != nil {
		t.Fatalf("verify: %v (stderr: %s)", err, errb.String())
	}
	if got := out.String(); !strings.Contains(got, "original: [0 2]") {
		t.Errorf("unexpected verification output:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, &out, &errb); err == nil {
		t.Error("want an error without -program")
	}
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Errorf("-h should print usage and succeed, got %v", err)
	}
	// There is no -engine flag: the CLI always runs the library default engine.
	errb.Reset()
	err := run([]string{"-program", "testdata/wrapper.dl", "-engine", "bitmap"}, &out, &errb)
	if !errors.Is(err, errFlagParse) || !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine must fail flag parsing, got %v (stderr: %s)", err, errb.String())
	}
	if err := run([]string{"-program", "testdata/wrapper.dl", "-O", "9"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
	if err := run([]string{"-program", "testdata/wrapper.dl", "-O0", "-O1"}, &out, &errb); err == nil {
		t.Error("-O0 together with -O1 must error")
	}
}
