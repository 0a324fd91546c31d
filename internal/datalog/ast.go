// Package datalog implements function-free logic programs (datalog) in
// the sense of Section 3 of Gottlob & Koch (PODS 2002): syntax, safety,
// the immediate consequence operator T_P, and bottom-up evaluation over
// finite structures. Monadic datalog is the fragment in which every
// intensional (head) predicate is unary; helpers for recognizing the
// fragments studied in the paper (monadic, guarded, Datalog LIT, TMNF)
// are provided here and in the eval and tmnf packages.
package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// Term is a variable or a constant. Variables are identified by name;
// constants are elements of the finite domain, identified by integer id
// (for tree structures, the document-order node id).
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the domain element when Var is empty.
	Const int
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(id int) Term { return Term{Const: id} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return fmt.Sprintf("%d", t.Const)
}

// Atom is p(t1,...,tm). Propositional atoms have no arguments.
type Atom struct {
	Pred string
	Args []Term
}

// At builds an atom.
func At(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	return Atom{Pred: a.Pred, Args: append([]Term(nil), a.Args...)}
}

// Vars appends the variables of a to dst (with duplicates) and returns it.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// Rule is h ← b1,...,bn. A rule with an empty body is a fact.
type Rule struct {
	Head Atom
	Body []Atom
}

// R builds a rule.
func R(head Atom, body ...Atom) Rule { return Rule{Head: head, Body: body} }

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars returns the set of variables occurring in the rule, in first-
// occurrence order.
func (r Rule) Vars() []string {
	seen := map[string]bool{}
	var out []string
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
		}
	}
	add(r.Head)
	for _, b := range r.Body {
		add(b)
	}
	return out
}

// IsSafe reports whether every head variable occurs in the body
// (the safety condition of Section 3.1).
func (r Rule) IsSafe() bool {
	inBody := map[string]bool{}
	for _, b := range r.Body {
		for _, t := range b.Args {
			if t.IsVar() {
				inBody[t.Var] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar() && !inBody[t.Var] {
			return false
		}
	}
	return true
}

// IsGround reports whether the rule contains no variables.
func (r Rule) IsGround() bool {
	for _, t := range r.Head.Args {
		if t.IsVar() {
			return false
		}
	}
	for _, b := range r.Body {
		for _, t := range b.Args {
			if t.IsVar() {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	c := Rule{Head: r.Head}
	c.Head.Args = append([]Term(nil), r.Head.Args...)
	c.Body = make([]Atom, len(r.Body))
	for i, b := range r.Body {
		c.Body[i] = Atom{Pred: b.Pred, Args: append([]Term(nil), b.Args...)}
	}
	return c
}

// Program is a set of datalog rules, optionally with a distinguished
// query predicate (the paper's "monadic datalog query").
type Program struct {
	Rules []Rule
	// Query is the distinguished query predicate; may be empty for
	// programs that define several extraction functions at once.
	Query string
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program { return &Program{Rules: rules} }

// Add appends rules and returns the program for chaining.
func (p *Program) Add(rules ...Rule) *Program {
	p.Rules = append(p.Rules, rules...)
	return p
}

// Clone returns a deep copy.
func (p *Program) Clone() *Program {
	q := &Program{Query: p.Query, Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		q.Rules[i] = r.Clone()
	}
	return q
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// IntensionalPreds returns the sorted set of predicates that occur in
// some rule head.
func (p *Program) IntensionalPreds() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ExtensionalPreds returns the sorted set of body predicates that never
// occur in a head.
func (p *Program) ExtensionalPreds() []string {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	set := map[string]bool{}
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if !idb[b.Pred] {
				set[b.Pred] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// IsMonadic reports whether every intensional predicate is unary or
// propositional (0-ary helper predicates are tolerated: the paper's own
// constructions introduce them when splitting disconnected rules).
func (p *Program) IsMonadic() bool {
	for _, r := range p.Rules {
		if len(r.Head.Args) > 1 {
			return false
		}
	}
	return true
}

// Check validates safety of all rules and consistent predicate arities
// across the program.
func (p *Program) Check() error {
	arity := map[string]int{}
	seeAtom := func(a Atom, where Rule) error {
		if ar, ok := arity[a.Pred]; ok && ar != len(a.Args) {
			return fmt.Errorf("datalog: predicate %s used with arities %d and %d (%s)",
				a.Pred, ar, len(a.Args), where)
		}
		arity[a.Pred] = len(a.Args)
		return nil
	}
	for i, r := range p.Rules {
		if !r.IsSafe() {
			return fmt.Errorf("datalog: rule %d is unsafe: %s", i, r)
		}
		if err := seeAtom(r.Head, r); err != nil {
			return err
		}
		for _, b := range r.Body {
			if err := seeAtom(b, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// IsConnected reports whether the rule's query graph — vertices are the
// rule's variables, with an edge {x,y} for each binary body atom
// R(x,y) — is connected, counting variables that occur only in unary
// atoms as isolated vertices (Theorem 4.2 of the paper).
func (r Rule) IsConnected() bool {
	vars := r.Vars()
	if len(vars) <= 1 {
		return true
	}
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	parent := make([]int, len(vars))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(x, y int) { parent[find(x)] = find(y) }
	for _, b := range r.Body {
		var prev = -1
		for _, t := range b.Args {
			if !t.IsVar() {
				continue
			}
			cur := idx[t.Var]
			if prev >= 0 {
				union(prev, cur)
			}
			prev = cur
		}
	}
	root := find(0)
	for i := 1; i < len(vars); i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}
