package opt

// Registry-wide wrapper subsumption: the fusion pass that turns the
// containment checker into saved evaluation. After dedup, the
// fused program's visible (protected) predicates are fingerprinted by
// UnfoldSignature, computed once per member on the member's own
// program (Signatures); predicates with equal signatures denote the
// same UCQ over the extensional tree vocabulary and therefore have
// identical extensions on every document. All but one representative
// per signature class are deleted — rules dropped, body references
// redirected, alias recorded — so a member whose question another
// member already answers costs zero evaluation per document and is
// served purely by projection.
//
// Signature equality is deliberately the only merge trigger here:
// one-way containment (A ⊆ B, proper) does NOT allow answering A from
// B's relation, and "maybe equal" (Unknown) falls back to evaluation.
// The pass can thus never change observable semantics — it only
// collapses proven-equal work — and its checker runs with refutation
// disabled: a compile pipeline has no use for counterexamples, only
// for proofs.

import (
	"sort"
	"sync"
	"time"

	"mdlog/internal/datalog"
)

// Signatures memoizes one fusion member's UCQ signatures: its visible
// and query predicates' UnfoldSignature results on the member's own
// post-optimization program, computed on first use. A compiled query
// keeps one beside its program, so a rebuild of the fused set unfolds
// only the members compiled since the last build. The zero value is
// ready to use; it is safe for concurrent use.
//
// A member's signature stands for the fused predicate that dedup made
// its representative: dedup merges only predicates whose definitions
// agree modulo a stable partition, which unfold to the same UCQ. The
// one difference is the MaxCQs budget, which counts disjuncts before
// duplicates are dropped, and the member program has at least the
// fused program's duplicates. So a member signature can be Unknown
// where the fused program's would be decided, never the reverse:
// looking signatures up per member is conservative.
type Signatures struct {
	once sync.Once
	sigs map[string]string
}

// of returns m's signatures by predicate (Unknown predicates absent)
// and whether this call computed them. A nil memo computes them every
// call.
func (s *Signatures) of(m FuseMember) (map[string]string, bool) {
	if s == nil {
		return memberSignatures(m), true
	}
	computed := false
	s.once.Do(func() {
		s.sigs = memberSignatures(m)
		computed = true
	})
	return s.sigs, computed
}

// memberSignatures unfolds m's visible and query predicates on m's own
// program.
func memberSignatures(m FuseMember) map[string]string {
	o := ContainOptions{NoRefute: true}
	sigs := map[string]string{}
	preds := m.Visible
	if m.Program.Query != "" {
		preds = append(preds[:len(preds):len(preds)], m.Program.Query)
	}
	for _, pred := range preds {
		if sig, ok := UnfoldSignature(m.Program, pred, &o); ok {
			sigs[pred] = sig
		}
	}
	return sigs
}

// subsumeProtected merges protected predicates with equal unfolding
// signatures, extends aliases with the merges (composing existing
// entries through them), prunes rules reachable only from merged-away
// predicates, and returns the updated alias map. signature looks up a
// live protected predicate's signature (ok false: Unknown).
func subsumeProtected(p *datalog.Program, protected map[string]bool, aliases map[string]string, rep *FuseReport,
	signature func(pred string) (string, bool)) map[string]string {
	start := time.Now()
	defer func() { rep.CheckNs += time.Since(start).Nanoseconds() }()
	// The live protected predicates: earlier passes may already have
	// aliased some onto others.
	liveSet := map[string]bool{}
	for pred := range protected {
		if tgt, ok := aliases[pred]; ok {
			pred = tgt
		}
		liveSet[pred] = true
	}
	live := make([]string, 0, len(liveSet))
	for pred := range liveSet {
		live = append(live, pred)
	}
	sort.Strings(live)
	defined := map[string]bool{}
	for _, r := range p.Rules {
		defined[r.Head.Pred] = true
	}
	groups := map[string][]string{}
	for _, pred := range live {
		if !defined[pred] {
			continue // defined nowhere: empty extension, nothing to save
		}
		rep.SubsumeChecked++
		sig, ok := signature(pred)
		if !ok {
			rep.SubsumeUnknown++
			continue
		}
		groups[sig] = append(groups[sig], pred)
	}
	merged := map[string]string{}
	sigs := make([]string, 0, len(groups))
	for sig := range groups {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		preds := groups[sig]
		if len(preds) < 2 {
			continue
		}
		sort.Strings(preds)
		// The representative must not depend on any merged-away class
		// member: dropping w's rules while the representative derives
		// through w would cut the representative's own derivation. A
		// dependency-minimal member always exists — every class member
		// unfolded, so dependency among them is acyclic (mutual
		// dependence would be recursion, which never gets a signature).
		repPred := ""
		for _, cand := range preds {
			c := dependencyCone(p, cand)
			ok := true
			for _, other := range preds {
				if other != cand && c[other] {
					ok = false
					break
				}
			}
			if ok {
				repPred = cand
				break
			}
		}
		if repPred == "" {
			continue // unreachable given acyclicity; refuse rather than break
		}
		for _, pred := range preds {
			if pred == repPred {
				continue
			}
			merged[pred] = repPred
			rep.SubsumedPreds++
		}
	}
	if len(merged) == 0 {
		return aliases
	}
	// Drop the merged-away predicates' defining rules and redirect any
	// body references to the representative.
	kept := p.Rules[:0]
	for _, r := range p.Rules {
		if _, gone := merged[r.Head.Pred]; gone {
			continue
		}
		for j := range r.Body {
			if tgt, ok := merged[r.Body[j].Pred]; ok {
				r.Body[j].Pred = tgt
			}
		}
		kept = append(kept, r)
	}
	p.Rules = kept
	aliases = composeAliases(aliases, merged)
	// Helper chains that only served merged-away predicates are dead
	// now; sweep them so the fused plan grounds nothing for them.
	roots := map[string]bool{}
	for pred := range liveSet {
		if tgt, ok := merged[pred]; ok {
			pred = tgt
		}
		roots[pred] = true
	}
	if p.Query != "" {
		roots[p.Query] = true
	}
	var dr Report
	eliminateDead(p, roots, &dr)
	return aliases
}

// dependencyCone returns the set of intensional predicates reachable
// from pred's defining rules (pred itself excluded unless it is
// reachable through a cycle). The subsumption pass uses it to refuse
// representatives that derive through a predicate being merged away.
func dependencyCone(p *datalog.Program, pred string) map[string]bool {
	byHead := map[string][]int{}
	for i, r := range p.Rules {
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], i)
	}
	cone := map[string]bool{}
	stack := []string{pred}
	visited := map[string]bool{pred: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ri := range byHead[cur] {
			for _, a := range p.Rules[ri].Body {
				if len(byHead[a.Pred]) == 0 {
					continue // extensional or unruled: not in the cone
				}
				if !cone[a.Pred] {
					cone[a.Pred] = true
				}
				if !visited[a.Pred] {
					visited[a.Pred] = true
					stack = append(stack, a.Pred)
				}
			}
		}
	}
	return cone
}
