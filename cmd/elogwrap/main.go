// Command elogwrap compiles an Elog⁻ / Elog⁻Δ wrapper once and runs
// it on one or more HTML documents, printing each extracted tree as
// XML:
//
//	elogwrap -program wrapper.elog page.html
//	elogwrap -program wrapper.elog -patterns item,price p1.html p2.html
//
// With several documents the wrapper fans out over a bounded worker
// pool; outputs print in input order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	mdlog "mdlog"
	"mdlog/internal/cliflag"
	"mdlog/internal/wrap"
)

// errFlagParse marks a flag error the FlagSet itself already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "elogwrap: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the testable body of the command: XML on stdout, assignments
// (with -assign) on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("elogwrap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programFile = fs.String("program", "", "Elog program file (required)")
		patterns    = fs.String("patterns", "", "comma-separated patterns to extract (default: all)")
		keepText    = fs.Bool("text", true, "copy #text content into the output")
		showAssign  = fs.Bool("assign", false, "also print the node assignment per pattern")
		workers     = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
		optArg      = cliflag.OptLevel(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errFlagParse // the FlagSet already printed the error + usage
	}
	if *programFile == "" || fs.NArg() == 0 {
		return fmt.Errorf("need -program and at least one HTML file argument")
	}
	optLevel, err := optArg()
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*programFile)
	if err != nil {
		return err
	}
	opts := []mdlog.Option{
		mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: *keepText}),
		mdlog.WithOptLevel(optLevel),
	}
	if *patterns != "" {
		opts = append(opts, mdlog.WithExtract(strings.Split(*patterns, ",")...))
	}
	q, err := mdlog.Compile(string(src), mdlog.LangElog, opts...)
	if err != nil {
		return err
	}

	docs := make([]*mdlog.Tree, fs.NArg())
	for i, f := range fs.Args() {
		page, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		docs[i] = mdlog.ParseHTML(string(page))
	}

	ctx := context.Background()
	results := mdlog.MapAll(ctx, mdlog.Runner{Workers: *workers}, docs, q.Wrap)
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), res.Err)
		}
		if len(results) > 1 {
			fmt.Fprintf(stdout, "<!-- %s -->\n", fs.Arg(i))
		}
		if *showAssign {
			// A repeat run on the same tree: the result memo the Wrap run
			// just filled serves it.
			for pat, ids := range q.Run(ctx, docs[i]).Assignment {
				fmt.Fprintf(stderr, "%s: %v\n", pat, ids)
			}
		}
		if err := wrap.WriteXML(stdout, res.Value); err != nil {
			return err
		}
	}
	return nil
}
