// Package opt is the compile-time optimizer for monadic datalog
// programs: a pipeline of semantics-preserving rewrites run between a
// front-end's translation (MSO, XPath, caterpillar, Elog → datalog /
// TMNF) and plan preparation (eval.NewPlan or the generic engines).
//
// Theorem 4.2's O(|P|·|dom|) bound is linear in the RULE COUNT, and
// every translation in this repository pays for that generality with
// long chains of single-use auxiliary predicates (tm_*, subelem
// expansions, automaton state predicates) that the engine then grounds
// over every node of every document. The optimizer removes that
// overhead before any document is seen:
//
//  1. goal-directed dead-rule elimination — drop rules that cannot
//     contribute to any root predicate (predicate-dependency-graph
//     reachability, combined with a derivability fixpoint that removes
//     rules depending on underivable intensional predicates);
//  2. inlining of single-use intermediate predicates — unfold the
//     unique defining rule of a predicate used exactly once
//     (Tamaki–Sato unfolding, sound for definite programs), collapsing
//     the auxiliary chains the TMNF and Elog/MSO compilers emit;
//  3. duplicate-rule removal — drop rules identical up to variable
//     renaming;
//  4. redundant-body-atom removal — drop exact duplicate atoms within
//     one body (this also deduplicates repeated label tests, so a plan
//     interns and checks each tested label once per rule).
//
// Every pass preserves the least model restricted to the root
// predicates (see DESIGN.md for the pass-by-pass argument); the
// cross-formalism equivalence suite and the cross-engine differential
// fuzzer lock that in at every optimization level.
package opt

import (
	"fmt"
	"sort"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
)

// Level selects how aggressively Optimize rewrites a program.
type Level int

const (
	// O0 disables the optimizer: Optimize returns the program as-is.
	O0 Level = 0
	// O1 enables the full pipeline (the default).
	O1 Level = 1
)

// String names the level the way the CLI flags spell it.
func (l Level) String() string {
	switch l {
	case O0:
		return "O0"
	case O1:
		return "O1"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel converts a CLI flag value ("0", "1", "O0", "O1") into a
// Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "0", "O0", "-O0":
		return O0, nil
	case "1", "O1", "-O1":
		return O1, nil
	}
	return 0, fmt.Errorf("opt: unknown optimization level %q (want 0 or 1)", s)
}

// DefaultMaxBodyAtoms bounds how large an inlined rule body may grow.
// Chains longer than this stay partially folded — the cap only guards
// against degenerate translations, not realistic wrappers.
const DefaultMaxBodyAtoms = 64

// Options configures Optimize.
type Options struct {
	// Level selects the pass set; O0 disables everything.
	Level Level
	// Roots are the predicates whose extensions must be preserved —
	// the distinguished query predicate plus every predicate the
	// caller can observe (Eval/Wrap extraction lists). Empty means
	// "every intensional predicate is observable": goal-directed
	// elimination and inlining then keep all user predicates and only
	// the derivability / duplicate cleanups apply.
	Roots []string
}

// Report describes what one Optimize call did.
type Report struct {
	// Level the pipeline ran at.
	Level Level
	// RulesBefore / RulesAfter are the program sizes around the
	// pipeline.
	RulesBefore, RulesAfter int
	// AtomsBefore / AtomsAfter count body atoms around the pipeline.
	AtomsBefore, AtomsAfter int
	// DeadRules counts rules dropped by goal-directed reachability or
	// the derivability fixpoint.
	DeadRules int
	// Inlined counts single-use predicate definitions folded into
	// their unique use site.
	Inlined int
	// DuplicateRules counts rules dropped as variants of an earlier
	// rule.
	DuplicateRules int
	// RedundantAtoms counts duplicate body atoms (including repeated
	// label tests) removed.
	RedundantAtoms int
}

// Changed reports whether the pipeline altered the program at all.
func (r Report) Changed() bool {
	return r.DeadRules > 0 || r.Inlined > 0 || r.DuplicateRules > 0 || r.RedundantAtoms > 0
}

func bodyAtoms(p *datalog.Program) int {
	n := 0
	for _, r := range p.Rules {
		n += len(r.Body)
	}
	return n
}

// Optimize rewrites p according to o and reports what changed. The
// input program is never mutated; at O0 (or when nothing applies) the
// returned program is a clone with identical rules.
func Optimize(p *datalog.Program, o Options) (*datalog.Program, Report) {
	rep := Report{
		Level:       o.Level,
		RulesBefore: len(p.Rules),
		AtomsBefore: bodyAtoms(p),
	}
	out := p.Clone()
	if o.Level >= O1 {
		roots := rootSet(p, o.Roots)
		// The passes enable one another (removing a dead rule can make
		// a predicate single-use; inlining can create duplicates), so
		// iterate to a fixpoint. Each productive iteration strictly
		// shrinks rules+atoms, so the loop terminates; the explicit
		// bound is belt and braces.
		for iter := 0; iter < 64; iter++ {
			changed := false
			changed = dedupAtoms(out, &rep) || changed
			changed = eliminateDead(out, roots, &rep) || changed
			changed = dedupRules(out, &rep) || changed
			changed = inlineSingleUse(out, roots, &rep) || changed
			if !changed {
				break
			}
		}
	}
	rep.RulesAfter = len(out.Rules)
	rep.AtomsAfter = bodyAtoms(out)
	return out, rep
}

// rootSet resolves the observable predicates: the caller's roots, or
// every intensional predicate when none are given.
func rootSet(p *datalog.Program, roots []string) map[string]bool {
	set := map[string]bool{}
	if len(roots) == 0 {
		for _, r := range p.Rules {
			set[r.Head.Pred] = true
		}
	} else {
		for _, pred := range roots {
			set[pred] = true
		}
	}
	if p.Query != "" {
		set[p.Query] = true
	}
	return set
}

// ---------------------------------------------------------------------
// Pass 1: goal-directed dead-rule elimination.

// eliminateDead drops rules that cannot contribute to a root
// predicate. A rule is live iff (a) its head reaches a root in the
// predicate dependency graph (head ← body edges walked backward from
// the roots) and (b) every intensional body predicate is derivable
// (defined by at least one live chain of rules bottoming out in
// extensional atoms). Rules with underivable unary or propositional
// body atoms can never fire and are dropped even when reachable.
//
// Rules containing unknown BINARY body predicates (neither intensional
// nor a tree relation) are kept: the engines differ in how they treat
// them (the linear engine rejects them, the set-oriented engines see
// an empty relation), and the optimizer must not turn a diagnosed
// error into silence.
func eliminateDead(p *datalog.Program, roots map[string]bool, rep *Report) bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	// Derivability fixpoint: a predicate is derivable if some rule for
	// it has a body whose intensional unary/propositional atoms are all
	// derivable (extensional atoms and binary atoms are assumed
	// satisfiable — whether they hold is a per-document question).
	derivable := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			if derivable[r.Head.Pred] {
				continue
			}
			ok := true
			for _, b := range r.Body {
				if !bodyAtomSatisfiable(b, idb, derivable) {
					ok = false
					break
				}
			}
			if ok {
				derivable[r.Head.Pred] = true
				changed = true
			}
		}
	}
	// Reachability from the roots over head ← body edges.
	uses := map[string][]string{} // head pred -> body IDB preds
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if idb[b.Pred] {
				uses[r.Head.Pred] = append(uses[r.Head.Pred], b.Pred)
			}
		}
	}
	reach := map[string]bool{}
	var frontier []string
	add := func(pred string) {
		if !reach[pred] {
			reach[pred] = true
			frontier = append(frontier, pred)
		}
	}
	for pred := range roots {
		add(pred)
	}
	// Rules carrying unknown binary predicates survive this pass so
	// the engine still diagnoses them (see below) — which also means
	// everything they reference must stay defined, or the linear
	// engine would classify them as dead (undefined unary body atom)
	// before ever reaching the typo'd binary atom.
	for _, r := range p.Rules {
		if !hasUnknownBinary(r, idb) {
			continue
		}
		add(r.Head.Pred)
		for _, b := range r.Body {
			if idb[b.Pred] {
				add(b.Pred)
			}
		}
	}
	sort.Strings(frontier) // deterministic walk order
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, dep := range uses[cur] {
			if !reach[dep] {
				reach[dep] = true
				frontier = append(frontier, dep)
			}
		}
	}
	kept := p.Rules[:0]
	for _, r := range p.Rules {
		// A rule carrying an unknown binary predicate is kept whatever
		// its reachability: the linear engine diagnoses it with an
		// error, and dropping the rule would make the default -O1 level
		// compile what -O0 rejects.
		if hasUnknownBinary(r, idb) {
			kept = append(kept, r)
			continue
		}
		live := reach[r.Head.Pred] && derivable[r.Head.Pred]
		if live {
			for _, b := range r.Body {
				if !bodyAtomSatisfiable(b, idb, derivable) {
					live = false
					break
				}
			}
		}
		if live {
			kept = append(kept, r)
		} else {
			rep.DeadRules++
		}
	}
	changed := len(kept) != len(p.Rules)
	p.Rules = kept
	return changed
}

// hasUnknownBinary reports whether some body atom uses a binary
// predicate that is neither intensional nor a known tree relation.
func hasUnknownBinary(r datalog.Rule, idb map[string]bool) bool {
	for _, b := range r.Body {
		if len(b.Args) == 2 && !idb[b.Pred] && !eval.IsBinaryEDB(b.Pred) {
			return true
		}
	}
	return false
}

// bodyAtomSatisfiable reports whether a body atom could ever hold on
// some document: extensional tree atoms always can; intensional atoms
// need a derivable predicate; unknown unary/propositional predicates
// cannot. Unknown binary predicates are conservatively kept (see
// eliminateDead).
func bodyAtomSatisfiable(b datalog.Atom, idb, derivable map[string]bool) bool {
	if idb[b.Pred] {
		return derivable[b.Pred]
	}
	switch len(b.Args) {
	case 0:
		return false // propositional with no rules: never true
	case 1:
		return eval.IsUnaryEDB(b.Pred)
	default:
		return true
	}
}

// ---------------------------------------------------------------------
// Pass 2: single-use predicate inlining.

// inlineSingleUse unfolds predicates that have exactly one defining
// rule and exactly one body occurrence program-wide, are not roots,
// are not recursive, and are unary with a variable head argument,
// while the unfolded body stays within DefaultMaxBodyAtoms. The
// unique use atom is replaced by the defining body (head variable
// unified with the use-site variable, remaining variables freshly
// renamed), and the defining rule — now unused — is dropped. This is
// one unfold step followed by dead-code removal, which preserves the
// least model on every other predicate.
func inlineSingleUse(p *datalog.Program, roots map[string]bool, rep *Report) bool {
	type def struct {
		rule  int // defining rule index, -1 if none or several
		count int
	}
	defs := map[string]*def{}
	for i, r := range p.Rules {
		d := defs[r.Head.Pred]
		if d == nil {
			d = &def{rule: i}
			defs[r.Head.Pred] = d
		} else {
			d.rule = -1
		}
		d.count++
	}
	type use struct {
		rule, atom int
		count      int
	}
	uses := map[string]*use{}
	for i, r := range p.Rules {
		for j, b := range r.Body {
			u := uses[b.Pred]
			if u == nil {
				u = &use{rule: i, atom: j}
				uses[b.Pred] = u
			}
			u.count++
		}
	}

	// Candidate predicates, in deterministic order.
	var cands []string
	for pred, d := range defs {
		if roots[pred] || d.rule == -1 {
			continue
		}
		u := uses[pred]
		if u == nil || u.count != 1 || u.rule == d.rule {
			continue
		}
		cands = append(cands, pred)
	}
	sort.Strings(cands)

	changed := false
	drop := map[int]bool{}
	touched := map[int]bool{} // rules edited this round; re-analyze next iteration
	for _, pred := range cands {
		d, u := defs[pred], uses[pred]
		if drop[d.rule] || drop[u.rule] || touched[d.rule] || touched[u.rule] {
			continue // stale indices; the fixpoint loop retries
		}
		dr := p.Rules[d.rule]
		ur := p.Rules[u.rule]
		if !inlinable(dr, pred) {
			continue
		}
		target := ur.Body[u.atom]
		if len(target.Args) != 1 || !target.Args[0].IsVar() {
			continue
		}
		if len(ur.Body)-1+len(dr.Body) > DefaultMaxBodyAtoms {
			continue
		}
		merged, ok := unfold(ur, u.atom, dr, fmt.Sprintf("I%d", rep.Inlined))
		if !ok {
			continue
		}
		p.Rules[u.rule] = merged
		drop[d.rule] = true
		touched[u.rule] = true
		rep.Inlined++
		changed = true
	}
	if len(drop) > 0 {
		kept := p.Rules[:0]
		for i, r := range p.Rules {
			if !drop[i] {
				kept = append(kept, r)
			}
		}
		p.Rules = kept
	}
	return changed
}

// inlinable reports whether dr is a safe defining rule for unfolding
// pred: unary head over a variable, no constants, not self-recursive.
func inlinable(dr datalog.Rule, pred string) bool {
	if len(dr.Head.Args) != 1 || !dr.Head.Args[0].IsVar() {
		return false
	}
	for _, b := range dr.Body {
		if b.Pred == pred {
			return false
		}
		for _, t := range b.Args {
			if !t.IsVar() {
				return false
			}
		}
	}
	return true
}

// unfold replaces ur.Body[atom] with the body of dr, unifying dr's
// head variable with the use-site variable and renaming dr's other
// variables fresh (prefix tag).
func unfold(ur datalog.Rule, atom int, dr datalog.Rule, tag string) (datalog.Rule, bool) {
	useVar := ur.Body[atom].Args[0].Var
	headVar := dr.Head.Args[0].Var
	rename := map[string]string{headVar: useVar}
	taken := map[string]bool{}
	for _, v := range ur.Vars() {
		taken[v] = true
	}
	fresh := func(v string) string {
		name := v + "_" + tag
		for taken[name] {
			name += "x"
		}
		taken[name] = true
		return name
	}
	out := ur.Clone()
	var inlined []datalog.Atom
	for _, b := range dr.Body {
		nb := b.Clone()
		for i, t := range nb.Args {
			if !t.IsVar() {
				return out, false
			}
			nv, ok := rename[t.Var]
			if !ok {
				nv = fresh(t.Var)
				rename[t.Var] = nv
			}
			nb.Args[i] = datalog.V(nv)
		}
		inlined = append(inlined, nb)
	}
	body := make([]datalog.Atom, 0, len(out.Body)-1+len(inlined))
	body = append(body, out.Body[:atom]...)
	body = append(body, inlined...)
	body = append(body, out.Body[atom+1:]...)
	out.Body = body
	return out, true
}

// ---------------------------------------------------------------------
// Passes 3 and 4: duplicate rules and redundant body atoms.

// dedupRules drops rules whose canonical form (variables renamed by
// first occurrence, body atoms sorted) matches an earlier rule.
func dedupRules(p *datalog.Program, rep *Report) bool {
	seen := map[string]bool{}
	kept := p.Rules[:0]
	for _, r := range p.Rules {
		key := canonicalRule(r)
		if seen[key] {
			rep.DuplicateRules++
			continue
		}
		seen[key] = true
		kept = append(kept, r)
	}
	changed := len(kept) != len(p.Rules)
	p.Rules = kept
	return changed
}

// dedupAtoms removes exact duplicate atoms within each rule body —
// including repeated label tests on the same variable, so the plan
// compiles (and a run checks) each label test once.
func dedupAtoms(p *datalog.Program, rep *Report) bool {
	changed := false
	for i, r := range p.Rules {
		seen := map[string]bool{}
		kept := r.Body[:0]
		for _, b := range r.Body {
			key := b.String()
			if seen[key] {
				rep.RedundantAtoms++
				changed = true
				continue
			}
			seen[key] = true
			kept = append(kept, b)
		}
		p.Rules[i].Body = kept
	}
	return changed
}
