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
//     §Containment-aware compilation). Each member's signatures are
//     unfolded on its own program (Signatures): a dedup block unfolds
//     to one UCQ, and the member's larger disjunct count can only turn
//     a verdict into Unknown.
//
// Neither merge adds a rule or a predicate, so every fused rule's head
// carries some member's apex prefix.

import (
	"cmp"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"time"

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
	// Signatures memoizes the UCQ signatures of Program's visible and
	// query predicates across Fuse calls; it must only ever be used with
	// this Program and Visible. Nil computes them afresh every call.
	Signatures *Signatures
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
	// Unfolded counts the members whose signatures this call computed;
	// a member whose Signatures memo was already filled costs lookups.
	Unfolded int
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
// and subsume is the containment-checker pass over visible predicates,
// which compares each member's own signatures (memoized on
// FuseMember.Signatures). The subsumption aliases are composed over
// dedup's, so the returned map always points at surviving predicates.
func Fuse(members []FuseMember) (*datalog.Program, map[string]string, FuseReport) {
	fused, protected, rep := fuseUnion(members)
	start := time.Now()
	sigs := map[string]string{}
	for _, m := range members {
		own, computed := m.Signatures.of(m)
		if computed {
			rep.Unfolded++
		}
		for pred, sig := range own {
			sigs[m.Prefix+pred] = sig
		}
	}
	rep.CheckNs += time.Since(start).Nanoseconds()
	aliases := dedupShared(fused, protected, &rep)
	aliases = subsumeProtected(fused, protected, aliases, &rep, func(pred string) (string, bool) {
		sig, ok := sigs[pred]
		return sig, ok
	})
	rep.RulesOut = len(fused.Rules)
	return fused, aliases, rep
}

// fuseUnion apex-renames the members' programs into one and collects
// their protected (visible and query) predicates under fused names.
func fuseUnion(members []FuseMember) (*datalog.Program, map[string]bool, FuseReport) {
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
	return fused, protected, rep
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
// rules takes part with the empty rule set.
//
// Rules are compared as integer keys, never as text: each rule is
// encoded once (dedupCode), and every round renders it as a byte
// string with each predicate replaced by its token — its block for an
// intensional predicate, a fixed negative id for an extensional one —
// the body sorted by (token, argument text) and the variables numbered
// by first occurrence. That is canonicalRule's normal form with the
// token groups in a different, rule-independent order, so two rules
// get equal keys exactly when their canonical renderings with block
// ids are equal. Variable names, body-atom order, duplicate rules and
// recursion through the block itself thus never tell twins apart —
// mutually recursive twin chains merge as well as plain ones.
//
// Each block is then renamed to one representative, once, and the
// rules the renaming makes identical are dropped: those are the rules
// whose keys in the last round are equal, because the renaming maps
// blocks one-to-one onto representatives. Protected predicates are
// part of the fused program's output interface, so their extensions
// must stay addressable: the representative is a protected predicate
// when the block has one, and every other protected predicate of the
// block is recorded in the returned alias map, pointing at it; the
// caller projects the shared relation under both names. (An alias RULE
// p(X) :- rep(X) would be semantically equivalent but grounds one Horn
// clause per document node, which for near-identical wrapper fleets
// costs more than the merge saves.)
func dedupShared(p *datalog.Program, protected map[string]bool, rep *FuseReport) map[string]string {
	arityOf := map[string]int{}
	for _, r := range p.Rules {
		arityOf[r.Head.Pred] = len(r.Head.Args)
		for _, a := range r.Body {
			if !extensional(a) {
				arityOf[a.Pred] = len(a.Args)
			}
		}
	}
	preds := slices.Sorted(maps.Keys(arityOf))
	c := newDedupCode(p.Rules, preds)
	block := make([]int32, len(preds))
	next := make([]int32, len(preds))
	ruleID := make([]int32, len(p.Rules))
	ruleIDs := map[string]int32{}
	defIDs := map[string]int32{}
	var buf []byte
	var ids []int32
	for blocks := 1; ; {
		// A rule's key reads the current partition; a predicate's key is
		// its current block, its arity and the set of its rules' keys, so
		// blocks only ever split; once a round splits none, the partition
		// is stable and the rule keys were read under it.
		clear(ruleIDs)
		for ri := range p.Rules {
			buf = c.appendRuleKey(buf[:0], ri, block)
			id, ok := ruleIDs[string(buf)]
			if !ok {
				id = int32(len(ruleIDs))
				ruleIDs[string(buf)] = id
			}
			ruleID[ri] = id
		}
		clear(defIDs)
		for pi, pred := range preds {
			ids = ids[:0]
			for _, ri := range c.defs[pi] {
				ids = append(ids, ruleID[ri])
			}
			slices.Sort(ids)
			buf = binary.AppendUvarint(buf[:0], uint64(block[pi]))
			buf = binary.AppendUvarint(buf, uint64(arityOf[pred]))
			for _, id := range slices.Compact(ids) {
				buf = binary.AppendUvarint(buf, uint64(id))
			}
			id, ok := defIDs[string(buf)]
			if !ok {
				id = int32(len(defIDs))
				defIDs[string(buf)] = id
			}
			next[pi] = id
		}
		block, next = next, block
		if len(defIDs) == blocks {
			break
		}
		blocks = len(defIDs)
	}
	// Representative: the first protected predicate of the block if
	// any, else the lexicographically smallest.
	repOf := make([]string, len(defIDs))
	for pi, pred := range preds {
		b := block[pi]
		if cur := repOf[b]; cur == "" || protected[pred] && !protected[cur] {
			repOf[b] = pred
		}
	}
	rename := map[string]string{}
	aliases := map[string]string{}
	for pi, pred := range preds {
		if r := repOf[block[pi]]; r != pred {
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
	seen := make([]bool, len(ruleIDs))
	kept := p.Rules[:0]
	for ri, r := range p.Rules {
		if seen[ruleID[ri]] {
			rep.MergedRules++
			continue
		}
		seen[ruleID[ri]] = true
		if to, ok := rename[r.Head.Pred]; ok {
			r.Head.Pred = to
		}
		for j := range r.Body {
			if to, ok := rename[r.Body[j].Pred]; ok {
				r.Body[j].Pred = to
			}
		}
		kept = append(kept, r)
	}
	p.Rules = kept
	return aliases
}

// dedupCode is a program's rules encoded once for dedupShared's
// refinement rounds: every atom's predicate as an index into the sorted
// intensional predicates, or as a negative id for any other predicate,
// and every variable as a rule-local number.
type dedupCode struct {
	rules []codedRule
	// defs lists, per intensional predicate, the rules it heads.
	defs [][]int32
	// order and num are scratch space for appendRuleKey.
	order []int32
	num   []int32
}

type codedRule struct {
	head codedAtom
	body []codedAtom
	vars int
}

type codedAtom struct {
	// pred is an index into the sorted intensional predicates when ≥ 0,
	// an id shared by every atom of one other predicate when < 0.
	pred int32
	// rank orders the atom's argument text among its rule's body atoms:
	// canonicalRule's order between atoms of one token group.
	rank int32
	args []codedArg
}

// codedArg is a rule-local variable number, or a constant when v < 0.
type codedArg struct {
	v int32
	c int
}

func newDedupCode(rules []datalog.Rule, preds []string) *dedupCode {
	index := make(map[string]int32, len(preds))
	for i, pred := range preds {
		index[pred] = int32(i)
	}
	other := map[string]int32{}
	c := &dedupCode{rules: make([]codedRule, len(rules)), defs: make([][]int32, len(preds))}
	vars := map[string]int32{}
	var text []string
	var byText []int32
	for ri, r := range rules {
		clear(vars)
		code := func(a datalog.Atom) codedAtom {
			ca := codedAtom{args: make([]codedArg, len(a.Args))}
			if i, ok := index[a.Pred]; ok {
				ca.pred = i
			} else {
				i, ok := other[a.Pred]
				if !ok {
					i = -int32(len(other)) - 1
					other[a.Pred] = i
				}
				ca.pred = i
			}
			for j, t := range a.Args {
				if !t.IsVar() {
					ca.args[j] = codedArg{v: -1, c: t.Const}
					continue
				}
				v, ok := vars[t.Var]
				if !ok {
					v = int32(len(vars))
					vars[t.Var] = v
				}
				ca.args[j] = codedArg{v: v}
			}
			return ca
		}
		cr := codedRule{head: code(r.Head), body: make([]codedAtom, len(r.Body))}
		text = text[:0]
		for j, a := range r.Body {
			cr.body[j] = code(a)
			text = append(text, a.String()[len(a.Pred):])
		}
		byText = byText[:0]
		for j := range r.Body {
			byText = append(byText, int32(j))
		}
		slices.SortStableFunc(byText, func(x, y int32) int { return strings.Compare(text[x], text[y]) })
		for rank, j := range byText {
			cr.body[j].rank = int32(rank)
		}
		cr.vars = len(vars)
		c.rules[ri] = cr
		c.defs[cr.head.pred] = append(c.defs[cr.head.pred], int32(ri))
	}
	return c
}

// appendRuleKey appends rule ri's key under the partition block: head,
// then body sorted by (token, argument text), every atom as its token,
// arity and arguments, variables numbered by first occurrence.
func (c *dedupCode) appendRuleKey(buf []byte, ri int, block []int32) []byte {
	r := &c.rules[ri]
	token := func(a *codedAtom) int32 {
		if a.pred >= 0 {
			return block[a.pred]
		}
		return a.pred
	}
	c.order = c.order[:0]
	for j := range r.body {
		c.order = append(c.order, int32(j))
	}
	slices.SortFunc(c.order, func(x, y int32) int {
		a, b := &r.body[x], &r.body[y]
		if ta, tb := token(a), token(b); ta != tb {
			return cmp.Compare(ta, tb)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	c.num = slices.Grow(c.num[:0], r.vars)[:r.vars]
	for i := range c.num {
		c.num[i] = -1
	}
	next := int32(0)
	atom := func(a *codedAtom) {
		buf = binary.AppendVarint(buf, int64(token(a)))
		buf = binary.AppendUvarint(buf, uint64(len(a.args)))
		for _, arg := range a.args {
			if arg.v < 0 {
				buf = binary.AppendVarint(append(buf, 1), int64(arg.c))
				continue
			}
			if c.num[arg.v] < 0 {
				c.num[arg.v] = next
				next++
			}
			buf = binary.AppendUvarint(append(buf, 0), uint64(c.num[arg.v]))
		}
	}
	atom(&r.head)
	for _, j := range c.order {
		atom(&r.body[j])
	}
	return buf
}
