// Command msoc compiles a unary MSO query to monadic datalog
// (Theorem 4.4) and optionally evaluates it:
//
//	msoc -formula 'exists y (child(x,y) & label_b(y))' -alphabet a,b
//	msoc -formula 'leaf(x)' -alphabet a,b -tree 'a(b,a(b))'
//
// Evaluation cross-checks the unified Compile route (tree automaton)
// against the Theorem 4.4 datalog translation.
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
	"mdlog/internal/mso"
)

// errFlagParse marks a flag error the FlagSet itself already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "msoc: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("msoc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		formula  = fs.String("formula", "", "MSO formula with one free first-order variable (required)")
		alphabet = fs.String("alphabet", "a,b", "comma-separated document alphabet Σ")
		treeArg  = fs.String("tree", "", "evaluate on this tree (term syntax) instead of printing the program")
		stats    = fs.Bool("stats", false, "print automaton/program size statistics")
		optArg   = cliflag.OptLevel(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		return errFlagParse // the FlagSet already printed the error + usage
	}
	if *formula == "" {
		return fmt.Errorf("missing -formula")
	}
	optLevel, err := optArg()
	if err != nil {
		return err
	}
	f, err := mso.Parse(*formula)
	if err != nil {
		return err
	}
	q, err := mso.CompileQuery(f)
	if err != nil {
		return err
	}
	labels := strings.Split(*alphabet, ",")
	prog, err := q.ToDatalog(labels, "mso_select")
	if err != nil {
		return err
	}
	if *stats {
		dq, err := mdlog.CompileProgram(prog,
			mdlog.WithQueryPred("mso_select"), mdlog.WithExtract("mso_select"),
			mdlog.WithOptLevel(optLevel))
		if err != nil {
			return err
		}
		rep := dq.OptStats()
		fmt.Fprintf(stdout, "automaton states: %d\nautomaton transitions: %d\ndatalog rules: %d\nplanned rules (%s): %d\n",
			q.C.DTA.NumStates, q.C.DTA.NumTransitions(), len(prog.Rules), rep.Level, rep.RulesAfter)
		return nil
	}
	if *treeArg != "" {
		t, err := mdlog.ParseTree(*treeArg)
		if err != nil {
			return err
		}
		ctx := context.Background()
		// Route 1: the unified API (compiles to the tree automaton).
		cq, err := mdlog.Compile(*formula, mdlog.LangMSO)
		if err != nil {
			return err
		}
		autoSel, err := cq.Select(ctx, t)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "automaton:  %v\n", autoSel)
		// Route 2: the Theorem 4.4 translation through the datalog plan
		// (goal-directed: only mso_select is observable, so -O 1 prunes
		// the automaton-state predicates the query never reaches).
		dq, err := mdlog.CompileProgram(prog,
			mdlog.WithQueryPred("mso_select"), mdlog.WithExtract("mso_select"),
			mdlog.WithOptLevel(optLevel))
		if err != nil {
			return err
		}
		dlSel, err := dq.Select(ctx, t)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "datalog:    %v\n", dlSel)
		return nil
	}
	fmt.Fprint(stdout, prog.String())
	return nil
}
