package opt

// α-canonicalization is the shared spine of the compile pipeline's
// structure-aware layers: duplicate-rule removal (Optimize),
// cross-member predicate dedup (Fuse), the containment checker's
// conjunctive-query normal forms (contain.go), and the TreeCache plan
// keys (mdlog.newPlanKey via Canonicalize). One canonical form means
// one notion of "same program": two plans whose rules are α-equivalent
// up to rule order share a result memo, collide in Fuse, and are
// proven equivalent by the checker for free. Fuse's dedup renders no
// strings: it computes the same form on integer-encoded rules
// (dedupCode in fuse.go), ordering atom groups by integer token
// instead of by text, which equates exactly the rules canonicalRule
// equates.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"mdlog/internal/datalog"
)

// Canon is the α-canonical fingerprint of a program: a canonical
// rendering (rules canonicalized individually and sorted, so rule
// order and per-rule variable naming never matter), its 64-bit FNV-1a
// hash, and the rule count as a collision backstop. Two programs with
// equal Canon.Key have identical least models on every database.
type Canon struct {
	// Key is the canonical rendering.
	Key string
	// Hash is the FNV-1a hash of Key.
	Hash uint64
	// Rules is the program's rule count.
	Rules int
}

// Canonicalize computes the α-canonical fingerprint of p. The extras
// are mixed into the hash (engine name, projection list, ...) so
// callers can scope cache keys by evaluation context without changing
// the canonical program text.
func Canonicalize(p *datalog.Program, extra ...string) Canon {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = canonicalRule(r)
	}
	sort.Strings(lines)
	key := strings.Join(lines, "\n")
	if p.Query != "" {
		key += "\n?- " + p.Query
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	for _, e := range extra {
		h.Write([]byte{0})
		h.Write([]byte(e))
	}
	return Canon{Key: key, Hash: h.Sum64(), Rules: len(p.Rules)}
}

// canonicalRule renders a rule with body atoms sorted by their literal
// text and variables then renumbered by first occurrence. α-equivalent
// rules with consistently ordered atoms collide; two rules can only
// collide if some variable renaming makes them literally identical, so
// a collision always means semantic equality (the converse is
// best-effort: exotic orderings of same-predicate atoms may escape).
func canonicalRule(r datalog.Rule) string {
	body := make([]string, len(r.Body))
	for i, b := range r.Body {
		body[i] = b.String()
	}
	sort.Strings(body)
	return renameByFirstOccurrence(r, body)
}

// renameByFirstOccurrence renders head + sorted body with variables
// renamed v0, v1, ... in order of first occurrence.
func renameByFirstOccurrence(r datalog.Rule, sortedBody []string) string {
	// Map original atom strings back to atoms in sorted order.
	atoms := make([]datalog.Atom, 0, len(r.Body)+1)
	atoms = append(atoms, r.Head)
	byText := map[string][]datalog.Atom{}
	for _, b := range r.Body {
		byText[b.String()] = append(byText[b.String()], b)
	}
	for _, s := range sortedBody {
		bs := byText[s]
		atoms = append(atoms, bs[0])
		byText[s] = bs[1:]
	}
	names := map[string]string{}
	var sb strings.Builder
	for i, a := range atoms {
		if i == 1 {
			sb.WriteString(" :- ")
		} else if i > 1 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Pred)
		if len(a.Args) > 0 {
			sb.WriteByte('(')
			for j, t := range a.Args {
				if j > 0 {
					sb.WriteByte(',')
				}
				if t.IsVar() {
					n, ok := names[t.Var]
					if !ok {
						n = fmt.Sprintf("v%d", len(names))
						names[t.Var] = n
					}
					sb.WriteString(n)
				} else {
					fmt.Fprintf(&sb, "%d", t.Const)
				}
			}
			sb.WriteByte(')')
		}
	}
	return sb.String()
}
