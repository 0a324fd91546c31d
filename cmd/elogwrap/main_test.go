package main

// CLI smoke tests: run() against a fixture wrapper and page, golden
// XML output (regenerate with `go test ./cmd/elogwrap -update`).

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/wrap"
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

func TestGoldenWrapSingleDoc(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-program", "testdata/wrapper.elog", "testdata/page.html"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "wrap_single.golden", out.Bytes())
}

func TestGoldenWrapMultiDocPatterns(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{
		"-program", "testdata/wrapper.elog", "-patterns", "price",
		"testdata/page.html", "testdata/page.html",
	}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	checkGolden(t, "wrap_multi_price.golden", out.Bytes())
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error without -program")
	}
	if err := run([]string{"-program", "testdata/wrapper.elog"}, &out, &errb); err == nil {
		t.Error("want an error without documents")
	}
	if err := run([]string{"-program", "testdata/missing.elog", "testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error for a missing program file")
	}
	// There is no -engine flag: the CLI always runs the library default engine.
	errb.Reset()
	err := run([]string{"-program", "testdata/wrapper.elog", "-engine", "linear", "testdata/page.html"}, &out, &errb)
	if !errors.Is(err, errFlagParse) || !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
		t.Errorf("-engine must fail flag parsing, got %v (stderr: %s)", err, errb.String())
	}
	if err := run([]string{"-program", "testdata/wrapper.elog", "-O", "max", "testdata/page.html"}, &out, &errb); err == nil {
		t.Error("want an error for a bad -O level")
	}
}

// TestEnginesAgree: the CLI wraps the fixture page on the library
// default engine at both optimization levels; its XML must be
// byte-identical to the library's wrap of the same page on each
// grounding engine at that level.
func TestEnginesAgree(t *testing.T) {
	src, err := os.ReadFile("testdata/wrapper.elog")
	if err != nil {
		t.Fatal(err)
	}
	page, err := os.ReadFile("testdata/page.html")
	if err != nil {
		t.Fatal(err)
	}
	doc := mdlog.ParseHTML(string(page))
	for _, o := range []string{"-O0", "-O1"} {
		var out, errb bytes.Buffer
		if err := run([]string{"-program", "testdata/wrapper.elog", o, "testdata/page.html"}, &out, &errb); err != nil {
			t.Fatalf("%s: %v (stderr: %s)", o, err, errb.String())
		}
		lvl, err := mdlog.ParseOptLevel(o[1:])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []mdlog.Engine{mdlog.EngineLinear, mdlog.EngineBitmap} {
			q, err := mdlog.Compile(string(src), mdlog.LangElog, mdlog.WithEngine(e), mdlog.WithOptLevel(lvl),
				mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: true}))
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := q.Wrap(context.Background(), doc)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := wrap.WriteXML(&want, wrapped); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want.Bytes()) {
				t.Errorf("%s: CLI output differs from the %v wrap:\n%s\nvs\n%s", o, e, out.Bytes(), want.Bytes())
			}
		}
	}
}
