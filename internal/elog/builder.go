package elog

import (
	"fmt"

	"mdlog/internal/tree"
)

// Builder simulates the visual wrapper specification process of
// Section 6.2: the user works on an example document, names a new
// pattern, selects a parent pattern, and "clicks" example nodes; the
// system infers the subelem path from the parent instance to the
// clicked node and generalizes across examples (wildcarding positions
// where labels differ, adding alternative rules where lengths differ).
// Conditions can then be attached visually as well. The generated
// program is ordinary Elog⁻.
type Builder struct {
	doc  *tree.Tree
	prog *Program
}

// NewBuilder starts a visual session on an example document.
func NewBuilder(doc *tree.Tree) *Builder {
	return &Builder{doc: doc, prog: &Program{}}
}

// Program returns the program built so far.
func (b *Builder) Program() *Program { return b.prog }

// Instances returns the current extension of a pattern on the example
// document — what the GUI would highlight (Section 6.2: "the system
// can then display the document and highlight those regions").
func (b *Builder) Instances(pattern string) ([]int, error) {
	if pattern == RootPattern {
		return []int{0}, nil // the root
	}
	res, err := b.prog.EvalDirect(b.doc)
	if err != nil {
		return nil, err
	}
	return res[pattern], nil
}

// PatternBuilder accumulates example clicks for one new rule.
type PatternBuilder struct {
	b      *Builder
	name   string
	parent string
	rules  []Rule // one rule per path shape
}

// DefinePattern names a destination pattern and its parent pattern
// (the first step of the visual process).
func (b *Builder) DefinePattern(name, parent string) *PatternBuilder {
	return &PatternBuilder{b: b, name: name, parent: parent}
}

// Click selects an example node. The node must lie strictly below (or
// on, for specializations) an instance of the parent pattern; the
// closest enclosing instance is used and the label path from it to the
// node becomes the subelem path. Repeated clicks generalize.
func (pb *PatternBuilder) Click(n *tree.Node) error {
	inst, err := pb.b.Instances(pb.parent)
	if err != nil {
		return err
	}
	instSet := map[int]bool{}
	for _, v := range inst {
		instSet[v] = true
	}
	// Find the closest ancestor-or-self that is a parent instance.
	var path Path
	cur := n
	for cur != nil && !instSet[cur.ID] {
		path = append(Path{cur.Label}, path...)
		cur = cur.Parent
	}
	if cur == nil {
		return fmt.Errorf("elog: node %d has no enclosing instance of pattern %q", n.ID, pb.parent)
	}
	newRule := Rule{Head: pb.name, HeadVar: "x", Parent: pb.parent, ParentVar: "x0", Path: path}
	if len(path) == 0 {
		newRule.HeadVar = "x0" // specialization
	}
	// Generalize against an existing rule of the same path length.
	for i, r := range pb.rules {
		if len(r.Path) != len(path) {
			continue
		}
		for j := range r.Path {
			if r.Path[j] != path[j] {
				pb.rules[i].Path[j] = Wildcard
			}
		}
		return nil
	}
	pb.rules = append(pb.rules, newRule)
	return nil
}

// Refine adds a condition to every rule of the pattern under
// construction (the "refined by ... adding conditions" step).
func (pb *PatternBuilder) Refine(c Condition) *PatternBuilder {
	for i := range pb.rules {
		pb.rules[i].Conds = append(pb.rules[i].Conds, c)
	}
	return pb
}

// Commit adds the accumulated rules to the program and returns the
// updated builder for chaining.
func (pb *PatternBuilder) Commit() (*Builder, error) {
	if len(pb.rules) == 0 {
		return nil, fmt.Errorf("elog: pattern %q has no example clicks", pb.name)
	}
	pb.b.prog.Rules = append(pb.b.prog.Rules, pb.rules...)
	if err := pb.b.prog.Validate(); err != nil {
		return nil, err
	}
	return pb.b, nil
}

// AnBnProgram is the Elog⁻Δ program of Theorem 6.6, which classifies
// the root as "anbn" iff its children read aⁿbⁿ (n ≥ 1) — a non-
// regular tree language, proving Elog⁻Δ strictly more expressive than
// MSO:
//
//	a0(x)   ← root(x0), subelem_a(x0, x), notafter_a(x0, x).
//	b0(x)   ← root(x0), subelem_b(x0, x), notafter_b(x0, x), notbefore_a(x0, x).
//	anbn(x) ← root(x), contains_a(x, y), a0(y), before_{b,50%−50%}(x, y, z), b0(z).
func AnBnProgram() *Program {
	return MustParseProgram(`
a0(x)   :- root(x0), subelem("a", x0, x), notafter("a", x0, x).
b0(x)   :- root(x0), subelem("b", x0, x), notafter("b", x0, x), notbefore("a", x0, x).
anbn(x) :- root(x), contains("a", x, y), a0(y), before("b", 50, 50, x, y, z), b0(z).
`)
}
