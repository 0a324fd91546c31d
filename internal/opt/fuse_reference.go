package opt

// The reference fusion: Fuse as it stood before dedup keyed rules by
// integers and subsumption looked member signatures up. Tests compare
// Fuse against it byte for byte — fused program text, aliases and
// report — on the fleets whose fused programs the gates pin and on the
// differential fuzzer's fused and renamed-twin sets. It lives outside
// the test files because those fleets are built by the root package's
// tests, which cannot import another package's test code.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"mdlog/internal/datalog"
)

// FuseReference fuses members as Fuse does, but refines the dedup
// partition on canonicalRule text, removes the renamed duplicates with
// dedupRules, and unfolds every visible predicate on the fused program
// itself. Its report counts every member as Unfolded. It exists only
// to be compared with Fuse; its CheckNs is not comparable.
func FuseReference(members []FuseMember) (*datalog.Program, map[string]string, FuseReport) {
	fused, protected, rep := fuseUnion(members)
	rep.Unfolded = len(members)
	aliases := dedupSharedByText(fused, protected, &rep)
	o := ContainOptions{NoRefute: true}
	aliases = subsumeProtected(fused, protected, aliases, &rep, func(pred string) (string, bool) {
		return UnfoldSignature(fused, pred, &o)
	})
	rep.RulesOut = len(fused.Rules)
	return fused, aliases, rep
}

// dedupSharedByText is dedupShared with every rule rendered to its
// canonical text in every refinement round.
func dedupSharedByText(p *datalog.Program, protected map[string]bool, rep *FuseReport) map[string]string {
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
		ids := map[string]int{}
		next := make(map[string]int, len(preds))
		for _, pred := range preds {
			key := fmt.Sprintf("%d/%d\n%s", block[pred], arity[pred], renderDef(defs[pred], block))
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

// renderDef renders a predicate's defining rules with every intensional
// predicate replaced by its block id: the canonical rules, sorted and
// without repeats. The NUL byte keeps block ids out of the space of
// parseable predicate names.
func renderDef(rules []datalog.Rule, block map[string]int) string {
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

// DiffFuseReference fuses members with Fuse and with FuseReference and
// describes the first difference in fused program text, aliases or
// report (CheckNs aside); nil when they agree. The members' Signatures
// memos must be fresh, so that Fuse computes them all as the reference
// does.
func DiffFuseReference(members []FuseMember) error {
	got, gotAliases, gotRep := Fuse(members)
	want, wantAliases, wantRep := FuseReference(members)
	gotRep.CheckNs, wantRep.CheckNs = 0, 0
	switch {
	case got.String() != want.String():
		return fmt.Errorf("fused program differs from the reference\nFuse:\n%s\nreference:\n%s", got, want)
	case !maps.Equal(gotAliases, wantAliases):
		return fmt.Errorf("aliases differ from the reference: Fuse %v, reference %v", gotAliases, wantAliases)
	case gotRep != wantRep:
		return fmt.Errorf("report differs from the reference: Fuse %+v, reference %+v", gotRep, wantRep)
	}
	return nil
}
