// Command mdlog compiles a query in any of the paper's formalisms and
// runs it on one or more document trees through the unified
// compile-once/run-many API:
//
//	mdlog -program wrapper.dl -tree 'a(b,c(d))'
//	mdlog -lang xpath -query '//table/tr[td/b]/td' -html page.html
//	mdlog -lang elog -program wrapper.elog -html p1.html -html p2.html
//	mdlog -lang spanner -program prices.span -html page.html
//	mdlog -program wrapper.dl -html page.html -O0 -stats
//
// With -lang spanner the program combines node rules with span rules
// (text/attr/match atoms); the output is one line per extracted span
// row instead of node-id sets.
//
// A datalog program may designate a query predicate with "?- pred.";
// -pred overrides it. With several documents the compiled query fans
// out over a bounded worker pool and results print in input order.
//
// Multi-program mode: -program and -query repeat. With more than one
// source, all of them (same -lang) compile into one fused QuerySet —
// per document, the base relations are grounded once and shared
// auxiliary chains are evaluated once — and per-wrapper results print
// prefixed with the program name:
//
//	mdlog -program items.elog -program prices.elog -lang elog -html page.html
//
// Watch mode: -watch polls the document files and re-runs the compiled
// extraction whenever one changes (the monitoring workload: compile
// once, extract on every revision):
//
//	mdlog -program wrapper.dl -html page.html -watch
//	mdlog -program wrapper.dl -html page.html -watch -watch-count 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/cliflag"
)

type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// errFlagParse marks a flag error the FlagSet itself already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "mdlog: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the testable body of the command: flags in, report on stdout,
// statistics on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mdlog", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		langArg      = fs.String("lang", "datalog", "query language: "+strings.Join(mdlog.LanguageNames(), ", "))
		programFiles multiFlag
		queryArgs    multiFlag
		treeArgs     multiFlag
		treeFiles    multiFlag
		htmlFiles    multiFlag
		optArg       = cliflag.OptLevel(fs)
		predArg      = fs.String("pred", "", "query predicate to select (overrides the program's ?- directive)")
		workers      = fs.Int("workers", 0, "worker pool size for multiple documents (0: GOMAXPROCS)")
		showTree     = fs.Bool("print-tree", false, "print each document tree with node ids")
		explainArg   = fs.Bool("explain", false, "print the compile plan (fusion, dedup, subsumption) before extracting")
		showStats    = fs.Bool("stats", false, "print compile/run statistics to stderr")
		watchArg     = fs.Bool("watch", false, "poll the document files and re-extract whenever one changes")
		watchIvl     = fs.Duration("watch-interval", 200*time.Millisecond, "poll interval for -watch")
		watchCount   = fs.Int("watch-count", 0, "with -watch: exit after this many extraction passes (0: run until interrupted)")
	)
	fs.Var(&programFiles, "program", "query source file; repeatable (several fuse into one QuerySet)")
	fs.Var(&queryArgs, "query", "query source text (alternative to -program); repeatable")
	fs.Var(&treeArgs, "tree", "document in term syntax, e.g. a(b,c); repeatable")
	fs.Var(&treeFiles, "treefile", "file containing a tree in term syntax; repeatable")
	fs.Var(&htmlFiles, "html", "HTML document file; repeatable")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errFlagParse // the FlagSet already printed the error + usage
	}

	if len(programFiles) > 0 && len(queryArgs) > 0 {
		return fmt.Errorf("-program and -query are alternatives; provide one kind")
	}
	type source struct{ name, text string }
	var sources []source
	for i, s := range queryArgs {
		sources = append(sources, source{name: fmt.Sprintf("q%d", i), text: s})
	}
	for _, f := range programFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		sources = append(sources, source{name: progName(f), text: string(b)})
	}
	if len(sources) == 0 {
		return fmt.Errorf("provide -program or -query")
	}
	lang, err := mdlog.ParseLanguage(*langArg)
	if err != nil {
		return err
	}
	optLevel, err := optArg()
	if err != nil {
		return err
	}
	opts := []mdlog.Option{mdlog.WithOptLevel(optLevel)}
	if *predArg != "" {
		opts = append(opts, mdlog.WithQueryPred(*predArg))
	}

	ctx := context.Background()
	runner := mdlog.Runner{Workers: *workers}

	// Compile once; pass runs the extraction over one batch of
	// documents and finishStats reports the lifetime aggregate —
	// watch mode calls pass once per document revision.
	var pass func(prefix string, docs []*mdlog.Tree) error
	var finishStats func()
	if len(sources) > 1 {
		// Multi-program mode: fuse every source into one QuerySet so
		// each document is grounded once for the whole fleet.
		specs := make([]mdlog.SetSpec, len(sources))
		for i, s := range sources {
			specs[i] = mdlog.SetSpec{Name: s.name, Source: s.text, Lang: lang, Options: opts}
		}
		set, err := mdlog.CompileSet(specs)
		if err != nil {
			return err
		}
		if *explainArg {
			explainSet(stdout, set)
		}
		queries := set.Queries()
		pass = func(prefix string, docs []*mdlog.Tree) error {
			results := mdlog.MapAll(ctx, runner, docs, func(ctx context.Context, t *mdlog.Tree) ([]mdlog.SetResult, error) {
				return set.Run(ctx, t), nil
			})
			for _, dr := range results {
				if dr.Err != nil {
					return fmt.Errorf("document %d: %w", dr.Index, dr.Err)
				}
				p := prefix
				if len(docs) > 1 {
					p = fmt.Sprintf("%s[doc %d] ", prefix, dr.Index)
				}
				for _, res := range dr.Value {
					if res.Err != nil {
						return fmt.Errorf("document %d, program %s: %w", dr.Index, res.Name, res.Err)
					}
					q := queries[res.Index]
					if res.Spans != nil {
						printSpans(stdout, p+res.Name+".", res.Spans)
					}
					if q.QueryPred() != "" {
						fmt.Fprintf(stdout, "%s%s: %v\n", p, res.Name, res.IDs)
						continue
					}
					for _, pred := range q.ExtractPreds() {
						fmt.Fprintf(stdout, "%s%s.%s: %v\n", p, res.Name, pred, res.Assignment[pred])
					}
				}
			}
			return nil
		}
		finishStats = func() {
			s := set.Stats()
			rep := set.FuseStats()
			fmt.Fprintf(stderr, "fused %d/%d programs (%d rules -> %d, %d shared preds), materialize %v, eval %v over %d runs (%d cache hits)\n",
				set.FusedLen(), set.Len(), rep.RulesIn, rep.RulesOut, rep.MergedPreds,
				s.Materialize, s.Eval, s.Runs, s.CacheHits)
		}
	} else {
		q, err := mdlog.Compile(sources[0].text, lang, opts...)
		if err != nil {
			return err
		}
		if *explainArg {
			explainQuery(stdout, sources[0].name, q)
		}
		// One run shape for every language: a spanner prints its span
		// relations one row per line (the node part's ?- selection
		// stays internal), anything else its query predicate or, failing
		// that, every extraction predicate.
		print := func(prefix string, res mdlog.SetResult) {
			switch {
			case lang == mdlog.LangSpanner:
				printSpans(stdout, prefix, res.Spans)
			case q.QueryPred() != "":
				fmt.Fprintf(stdout, "%s%s: %v\n", prefix, q.QueryPred(), res.IDs)
			default:
				for _, pred := range q.ExtractPreds() {
					fmt.Fprintf(stdout, "%s%s: %v\n", prefix, pred, res.Assignment[pred])
				}
			}
		}
		pass = func(prefix string, docs []*mdlog.Tree) error {
			if len(docs) == 1 {
				res := q.Run(ctx, docs[0])
				if res.Err != nil {
					return res.Err
				}
				print(prefix, res)
				return nil
			}
			results := mdlog.MapAll(ctx, runner, docs, func(ctx context.Context, t *mdlog.Tree) (mdlog.SetResult, error) {
				res := q.Run(ctx, t)
				return res, res.Err
			})
			for _, res := range results {
				if res.Err != nil {
					return fmt.Errorf("document %d: %w", res.Index, res.Err)
				}
				print(fmt.Sprintf("%s[doc %d] ", prefix, res.Index), res.Value)
			}
			return nil
		}
		finishStats = func() {
			s := q.Stats()
			fmt.Fprintf(stderr, "parse %v, compile %v, materialize %v, eval %v, %d facts, %d spans over %d runs (%d cache hits)\n",
				s.Parse, s.Compile, s.Materialize, s.Eval, s.Facts, s.Spans, s.Runs, s.CacheHits)
		}
	}

	if *watchArg {
		if err := watchLoop(stdout, stderr, treeArgs, treeFiles, htmlFiles, *watchIvl, *watchCount, *showTree, pass); err != nil {
			return err
		}
	} else {
		docs, err := loadDocs(treeArgs, treeFiles, htmlFiles)
		if err != nil {
			return err
		}
		if len(docs) == 0 {
			return fmt.Errorf("provide at least one -tree, -treefile or -html")
		}
		if *showTree {
			for _, d := range docs {
				fmt.Fprint(stdout, d.Pretty())
			}
		}
		if err := pass("", docs); err != nil {
			return err
		}
	}
	if *showStats {
		finishStats()
	}
	return nil
}

// fileStamp is the change signature a watch poll compares: a file is
// "changed" when its mtime or size differs from the previous poll.
type fileStamp struct {
	mod  time.Time
	size int64
}

func stampFiles(files []string) ([]fileStamp, error) {
	stamps := make([]fileStamp, len(files))
	for i, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		stamps[i] = fileStamp{mod: fi.ModTime(), size: fi.Size()}
	}
	return stamps, nil
}

// watchLoop reloads and re-extracts the document files each time one
// changes on disk (mtime/size polling — portable, no inotify
// dependency). Each extraction pass prints with a "[pass N]" prefix.
// count > 0 bounds the number of passes; count == 0 runs until the
// process is interrupted. After the first pass, a document that fails
// to load — a poll can land between os.WriteFile's truncate and its
// write — is reported on stderr and skipped until the next change; it
// does not count as a pass.
func watchLoop(stdout, stderr io.Writer, treeArgs, treeFiles, htmlFiles []string, interval time.Duration, count int, showTree bool, pass func(string, []*mdlog.Tree) error) error {
	if len(treeArgs) > 0 {
		return fmt.Errorf("-watch needs file-backed documents (-treefile or -html), not -tree literals")
	}
	files := append(append([]string{}, treeFiles...), htmlFiles...)
	if len(files) == 0 {
		return fmt.Errorf("provide at least one -treefile or -html")
	}
	if interval <= 0 {
		return fmt.Errorf("-watch-interval must be positive")
	}
	prev, err := stampFiles(files)
	if err != nil {
		return err
	}
	for n := 1; ; {
		docs, err := loadDocs(nil, treeFiles, htmlFiles)
		switch {
		case err != nil && n == 1:
			return err
		case err != nil:
			fmt.Fprintf(stderr, "mdlog: -watch: %v (waiting for the next change)\n", err)
		default:
			if showTree {
				for _, d := range docs {
					fmt.Fprint(stdout, d.Pretty())
				}
			}
			if err := pass(fmt.Sprintf("[pass %d] ", n), docs); err != nil {
				return err
			}
			if count > 0 && n >= count {
				return nil
			}
			n++
		}
		// Block until some watched file's stamp moves.
		for {
			time.Sleep(interval)
			cur, err := stampFiles(files)
			if err != nil {
				return err
			}
			changed := false
			for i := range cur {
				if cur[i] != prev[i] {
					changed = true
				}
			}
			if changed {
				prev = cur
				break
			}
		}
	}
}

// explainSet prints the fused set's compile plan: the registry-wide
// fuse/dedup/subsumption report followed by one line per member saying
// how it will be served (evaluated in the shared pass, answered purely
// by projection from an equivalent member, or run individually).
func explainSet(w io.Writer, set *mdlog.QuerySet) {
	rep := set.FuseStats()
	fmt.Fprintf(w, "plan: %d programs fused, %d rules -> %d (dedup %d preds, subsume %d merged of %d checked, %d unknown)\n",
		rep.Members, rep.RulesIn, rep.RulesOut, rep.MergedPreds,
		rep.SubsumedPreds, rep.SubsumeChecked, rep.SubsumeUnknown)
	for _, p := range set.Plans() {
		switch {
		case p.Subsumed:
			fmt.Fprintf(w, "  %s: subsumed, 0 rules, class %d, answers from %s\n", p.Name, p.Class, p.SharedWith)
		case p.Fused:
			fmt.Fprintf(w, "  %s: evaluated, %d rules, class %d\n", p.Name, p.Rules, p.Class)
		default:
			fmt.Fprintf(w, "  %s: individual, %d rules\n", p.Name, p.Rules)
		}
	}
}

// explainQuery prints a single compiled query's plan: the engine it
// routes through and, when the source passed through the datalog
// optimizer, what the optimizer did to it.
func explainQuery(w io.Writer, name string, q *mdlog.CompiledQuery) {
	fmt.Fprintf(w, "plan: %s on engine %s", name, q.EngineName())
	if o := q.OptStats(); o.RulesBefore > 0 {
		fmt.Fprintf(w, ", %s: %d rules -> %d (inlined %d, dead %d)",
			o.Level, o.RulesBefore, o.RulesAfter, o.Inlined, o.DeadRules)
	}
	fmt.Fprintln(w)
}

// printSpans renders span relations one row per line:
//
//	price(node 7): amt="2.20" [1:5]
func printSpans(w io.Writer, prefix string, res mdlog.SpanResult) {
	for _, rel := range res {
		for _, row := range rel.Rows {
			fmt.Fprintf(w, "%s%s(node %d):", prefix, rel.Name, row.Node)
			for i, sp := range row.Spans {
				fmt.Fprintf(w, " %s=%q [%d:%d]", rel.Vars[i], sp.Text, sp.Start, sp.End)
			}
			fmt.Fprintln(w)
		}
	}
}

// progName labels a program source by its file base name without
// extension ("wrappers/items.elog" → "items").
func progName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func loadDocs(terms, termFiles, htmlFiles []string) ([]*mdlog.Tree, error) {
	var docs []*mdlog.Tree
	for _, s := range terms {
		t, err := mdlog.ParseTree(s)
		if err != nil {
			return nil, err
		}
		docs = append(docs, t)
	}
	for _, f := range termFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		t, err := mdlog.ParseTree(string(b))
		if err != nil {
			return nil, err
		}
		docs = append(docs, t)
	}
	for _, f := range htmlFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		docs = append(docs, mdlog.ParseHTML(string(b)))
	}
	return docs, nil
}
