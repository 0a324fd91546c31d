package opt

// Program fusion for QuerySet: N post-optimization member programs —
// any of them the compiled form of a different source language —
// become ONE program that a single engine pass evaluates per
// document, after which each member's visible relations are projected
// back out.
//
// Soundness rests on three facts (see DESIGN.md §QuerySet):
//
//  1. Apex renaming. Every predicate a member defines (and every
//     non-extensional predicate it merely mentions) is prefixed with a
//     member-unique apex tag, so the fused program is a union of
//     programs with pairwise disjoint intensional vocabularies over a
//     shared extensional vocabulary. The least model of such a union
//     is the union of the members' least models: the immediate
//     consequence operator of the union decomposes into the members'
//     operators, which cannot interact through disjoint predicates.
//
//  2. Shared-auxiliary deduplication. Dedup partitions the
//     intensional predicates into blocks such that any two predicates
//     of a block have the same rule set once every intensional
//     predicate is replaced by its block (a stable partition).
//     Predicates of one block have equal fixpoint stages, by
//     induction: stage 0 is empty for all, and if stage k agrees within
//     every block, a rule of p and its block-equal twin of q derive the
//     same facts at stage k+1, since their body predicates lie in the
//     same blocks and the extensional relations are shared. So a
//     block's predicates have one least model, and renaming each to one
//     representative changes no visible extension. This is what makes
//     fusion pay: the tm_*/conn_* chains and descendant closures that
//     every translation emits for shared document structure are
//     evaluated once for the whole set instead of once per wrapper.
//
//  3. Subsumption. Visible predicates the containment checker proves
//     equivalent (equal unfolding signatures, subsume.go) have equal
//     extensions on every document, so all but one representative per
//     class are deleted and served by alias (DESIGN.md
//     §Containment-aware compilation).
//
// Neither merge adds a rule or a predicate, so every fused rule's head
// carries some member's apex prefix.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
)

// FuseMember is one program entering a fused evaluation unit.
type FuseMember struct {
	// Prefix is the member's apex tag (e.g. "s3__"); it must be unique
	// within the fused set and not a prefix of another member's tag.
	Prefix string
	// Program is the member's post-optimization program. It is never
	// mutated.
	Program *datalog.Program
	// Visible are the predicates whose extensions the caller observes
	// for this member; they are protected: each stays addressable as
	// Prefix+pred, in the fused program or through the alias map Fuse
	// returns, while everything else is fair game for merging.
	Visible []string
}

// FuseReport describes what one Fuse call did.
type FuseReport struct {
	// Members is the number of fused programs.
	Members int
	// RulesIn is the total rule count across all members; RulesOut is
	// the fused program's rule count after deduplication.
	RulesIn, RulesOut int
	// MergedPreds counts auxiliary predicates replaced by an
	// equivalent representative from another (or the same) member.
	MergedPreds int
	// MergedRules counts rules dropped because merging made them
	// duplicates of a surviving rule.
	MergedRules int
	// CSEPreds is always 0: fusion extracts no shared body fragments.
	// It remains only while mdbench reports it as opt.cse_preds.
	CSEPreds int
	// SubsumeChecked counts visible predicates the containment checker
	// fingerprinted during subsumption; SubsumedPreds counts those
	// proven equivalent to (and merged into) a representative;
	// SubsumeUnknown counts those the checker declined (recursive or
	// over budget — they fall back to evaluation, never to a guess).
	SubsumeChecked, SubsumedPreds, SubsumeUnknown int
	// CheckNs is wall time spent in the containment checker.
	CheckNs int64
}

// Fuse apex-renames each member's program and unions them into one,
// then merges predicates whose definitions coincide across members.
// Each member's visible predicate v appears in the result as
// member.Prefix+v — unless fusion merged it into an equivalent
// predicate, in which case aliases[member.Prefix+v] names the
// surviving predicate carrying the extension (reading that relation
// under the visible name costs nothing per document, whereas keeping
// an alias RULE would ground one clause per node). The fused program
// has no distinguished query predicate. The pipeline is
//
//	apex-rename ∪ → dedup → subsume
//
// where dedup is the partition-refinement merge of predicates with
// equal definitions (one pass reaches the coarsest stable partition)
// and subsume is the containment-checker pass over visible predicates.
// The subsumption aliases are composed over dedup's, so the returned
// map always points at surviving predicates.
func Fuse(members []FuseMember) (*datalog.Program, map[string]string, FuseReport) {
	rep := FuseReport{Members: len(members)}
	fused := &datalog.Program{}
	protected := map[string]bool{}
	for _, m := range members {
		rep.RulesIn += len(m.Program.Rules)
		renamed := apexRename(m.Program, m.Prefix)
		fused.Rules = append(fused.Rules, renamed.Rules...)
		for _, v := range m.Visible {
			protected[m.Prefix+v] = true
		}
		if m.Program.Query != "" {
			protected[m.Prefix+m.Program.Query] = true
		}
	}
	aliases := dedupShared(fused, protected, &rep)
	aliases = subsumeProtected(fused, protected, aliases, &rep)
	rep.RulesOut = len(fused.Rules)
	return fused, aliases, rep
}

// composeAliases redirects dst entries whose targets next merged away,
// and adopts next's new entries. Both maps' values must be surviving
// predicates of their respective passes, so the composition's values
// survive the later pass.
func composeAliases(dst, next map[string]string) map[string]string {
	if dst == nil {
		dst = map[string]string{}
	}
	for k, v := range dst {
		if nv, ok := next[v]; ok {
			dst[k] = nv
		}
	}
	for k, v := range next {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
	return dst
}

// apexRename clones p with every intensional — and every unknown, i.e.
// neither intensional nor extensional — predicate prefixed. Extensional
// tree predicates (τ_ur and its extensions, label_a, child_k) keep
// their names: they are the shared vocabulary fusion exists to ground
// once. Unknown predicates are renamed too, so a member's unruled
// (never-true) helper can never capture another member's defined
// predicate of the same name.
func apexRename(p *datalog.Program, prefix string) *datalog.Program {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	mapped := func(a datalog.Atom) string {
		if !idb[a.Pred] && extensional(a) {
			return a.Pred
		}
		return prefix + a.Pred
	}
	out := p.Clone()
	for i := range out.Rules {
		out.Rules[i].Head.Pred = mapped(out.Rules[i].Head)
		for j := range out.Rules[i].Body {
			out.Rules[i].Body[j].Pred = mapped(out.Rules[i].Body[j])
		}
	}
	if out.Query != "" {
		out.Query = prefix + out.Query
	}
	return out
}

// extensional reports whether a is an atom of the tree vocabulary the
// engines ground from the document.
func extensional(a datalog.Atom) bool {
	switch len(a.Args) {
	case 2:
		return eval.IsBinaryEDB(a.Pred)
	case 1:
		return eval.IsUnaryEDB(a.Pred)
	}
	return false
}

// dedupShared merges intensional predicates with equal definitions
// into one representative each. It computes the coarsest stable
// partition of the intensional predicates by Moore-style refinement
// (the one automata.DTA.Minimize runs for states): start with every
// predicate in one block, and split a block while two of its
// predicates have rule sets that differ once every intensional
// predicate is replaced by its block id. A predicate mentioned without
// rules takes part with the empty rule set. Rule sets compare as sets of canonical
// rules (canonicalRule), so variable names, body-atom order, duplicate
// rules and recursion through the block itself never tell twins apart
// — mutually recursive twin chains merge as well as plain ones.
//
// Each block is then renamed to one representative, once, and the
// rules the renaming makes identical are dropped. Protected predicates
// are part of the fused program's output interface, so their
// extensions must stay addressable: the representative is a protected
// predicate when the block has one, and every other protected
// predicate of the block is recorded in the returned alias map,
// pointing at it; the caller projects the shared relation under both
// names. (An alias RULE p(X) :- rep(X) would be semantically
// equivalent but grounds one Horn clause per document node, which for
// near-identical wrapper fleets costs more than the merge saves.)
func dedupShared(p *datalog.Program, protected map[string]bool, rep *FuseReport) map[string]string {
	defs := map[string][]datalog.Rule{}
	arity := map[string]int{}
	for _, r := range p.Rules {
		defs[r.Head.Pred] = append(defs[r.Head.Pred], r)
		arity[r.Head.Pred] = len(r.Head.Args)
		for _, a := range r.Body {
			if !extensional(a) {
				arity[a.Pred] = len(a.Args)
			}
		}
	}
	preds := slices.Sorted(maps.Keys(arity))
	block := make(map[string]int, len(preds))
	for _, pred := range preds {
		block[pred] = 0
	}
	for blocks := 1; ; {
		// A predicate's signature is its current block, its arity and
		// its rule set under the current partition, so blocks only ever
		// split; once a round splits none, the partition is stable.
		ids := map[string]int{}
		next := make(map[string]int, len(preds))
		for _, pred := range preds {
			key := fmt.Sprintf("%d/%d\n%s", block[pred], arity[pred], defKey(defs[pred], block))
			id, ok := ids[key]
			if !ok {
				id = len(ids)
				ids[key] = id
			}
			next[pred] = id
		}
		block = next
		if len(ids) == blocks {
			break
		}
		blocks = len(ids)
	}
	// Representative: the first protected predicate of the block if
	// any, else the lexicographically smallest.
	repOf := map[int]string{}
	for _, pred := range preds {
		b := block[pred]
		if cur, ok := repOf[b]; !ok || protected[pred] && !protected[cur] {
			repOf[b] = pred
		}
	}
	rename := map[string]string{}
	aliases := map[string]string{}
	for _, pred := range preds {
		if r := repOf[block[pred]]; r != pred {
			rename[pred] = r
			if protected[pred] {
				aliases[pred] = r
			}
		}
	}
	if len(rename) == 0 {
		return aliases
	}
	rep.MergedPreds += len(rename)
	for i := range p.Rules {
		r := &p.Rules[i]
		if to, ok := rename[r.Head.Pred]; ok {
			r.Head.Pred = to
		}
		for j := range r.Body {
			if to, ok := rename[r.Body[j].Pred]; ok {
				r.Body[j].Pred = to
			}
		}
	}
	var dr Report
	dedupRules(p, &dr)
	rep.MergedRules += dr.DuplicateRules
	return aliases
}

// defKey renders a predicate's defining rules with every intensional
// predicate replaced by its block id: the canonical rules, sorted and
// without repeats. The NUL byte keeps block ids out of the space of
// parseable predicate names.
func defKey(rules []datalog.Rule, block map[string]int) string {
	subst := func(pred string) string {
		if b, ok := block[pred]; ok {
			return "\x00" + strconv.Itoa(b)
		}
		return pred
	}
	lines := make([]string, len(rules))
	for i, r := range rules {
		c := r.Clone()
		c.Head.Pred = subst(c.Head.Pred)
		for j := range c.Body {
			c.Body[j].Pred = subst(c.Body[j].Pred)
		}
		lines[i] = canonicalRule(c)
	}
	slices.Sort(lines)
	return strings.Join(slices.Compact(lines), "\n")
}
