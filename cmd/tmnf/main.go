// Command tmnf normalizes a monadic datalog program over
// τ_ur ∪ {child, lastchild} into Tree-Marking Normal Form
// (Theorem 5.2) and prints the result:
//
//	tmnf -program wrapper.dl
//	tmnf -program wrapper.dl -tree 'a(b,c)' -pred q
//
// With -tree the original and the normalized program are both run
// through the unified Compile API (honoring -O0/-O1) and must select
// the same nodes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	mdlog "mdlog"
	"mdlog/internal/cliflag"
	"mdlog/internal/tmnf"
)

// errFlagParse marks a flag error the FlagSet itself already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "tmnf: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tmnf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programFile = fs.String("program", "", "datalog program file (required)")
		stats       = fs.Bool("stats", false, "print size statistics instead of the program")
		treeArg     = fs.String("tree", "", "verify the transformation on this tree (term syntax)")
		predArg     = fs.String("pred", "", "query predicate for -tree verification")
		optArg      = cliflag.OptLevel(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errFlagParse // the FlagSet already printed the error + usage
	}
	if *programFile == "" {
		return fmt.Errorf("missing -program")
	}
	optLevel, err := optArg()
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*programFile)
	if err != nil {
		return err
	}
	prog, err := mdlog.ParseProgram(string(src))
	if err != nil {
		return err
	}
	out, err := mdlog.ToTMNF(prog)
	if err != nil {
		return err
	}
	// Transform output is strict TMNF except for the bridging rules it
	// emits around propositional heads/atoms (which Definition 5.1
	// cannot express); IsNormalized validates exactly that contract.
	if err := tmnf.IsNormalized(out); err != nil {
		return fmt.Errorf("internal error, output not normalized: %v", err)
	}
	if *stats {
		fmt.Fprintf(stdout, "input rules:  %d\noutput rules: %d\n", len(prog.Rules), len(out.Rules))
		return nil
	}
	if *treeArg != "" {
		t, err := mdlog.ParseTree(*treeArg)
		if err != nil {
			return err
		}
		ctx := context.Background()
		opts := []mdlog.Option{mdlog.WithOptLevel(optLevel)}
		if *predArg != "" {
			opts = append(opts, mdlog.WithQueryPred(*predArg))
		}
		// Compile normalizes the original internally; compiling the
		// pre-normalized output must agree.
		oq, err := mdlog.CompileProgram(prog, opts...)
		if err != nil {
			return err
		}
		nq, err := mdlog.CompileProgram(out, opts...)
		if err != nil {
			return err
		}
		a, err := oq.Select(ctx, t)
		if err != nil {
			return err
		}
		b, err := nq.Select(ctx, t)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "original: %v\ntmnf:     %v\n", a, b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return fmt.Errorf("selection mismatch")
		}
		return nil
	}
	fmt.Fprint(stdout, out.String())
	return nil
}
