// Package xpath implements Core XPath — the logical core of XPath
// identified by Gottlob, Koch & Pichler (VLDB 2002) — and its
// translation into monadic datalog over τ_ur ∪ {child}, realizing the
// concluding remark of Section 7 of the paper: "Core XPath ... can be
// mapped efficiently to monadic datalog and thus inherits its very
// favorable worst-case evaluation complexity bounds."
//
// Supported: absolute and relative location paths over the axes
// child, descendant, descendant-or-self, self, parent, ancestor,
// ancestor-or-self, following-sibling, preceding-sibling, following
// and preceding; name tests, *, and text(); and filter predicates
// [E] built from relative paths, and, or, and not(·).
//
// The positive fragment (no not) compiles to pure monadic datalog
// (ToDatalog); the direct evaluator (Select) supports full Core XPath
// including negation, set-at-a-time in O(|D|·|Q|), and serves as the
// reference semantics for the translation.
package xpath

import (
	"fmt"
	"strings"
)

// Axis enumerates the Core XPath axes.
type Axis int

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisFollowing
	AxisPreceding
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"self":               AxisSelf,
	"parent":             AxisParent,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
	"following":          AxisFollowing,
	"preceding":          AxisPreceding,
}

func (a Axis) String() string {
	for n, ax := range axisNames {
		if ax == a {
			return n
		}
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Step is axis::test[pred]*.
type Step struct {
	Axis Axis
	// Test is a label, "*" (any element), or "#text" (text()).
	Test  string
	Preds []Expr
}

func (s Step) String() string {
	out := s.Axis.String() + "::" + testString(s.Test)
	for _, p := range s.Preds {
		out += "[" + p.String() + "]"
	}
	return out
}

func testString(t string) string {
	if t == "#text" {
		return "text()"
	}
	return t
}

// Path is a location path.
type Path struct {
	// Absolute paths start at the root.
	Absolute bool
	Steps    []Step
}

func (p *Path) String() string {
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		parts[i] = s.String()
	}
	out := strings.Join(parts, "/")
	if p.Absolute {
		return "/" + out
	}
	return out
}

// Expr is a filter expression.
type Expr interface {
	fmt.Stringer
	isExpr()
}

type (
	// ExprPath is an existential relative path.
	ExprPath struct{ Path *Path }
	// ExprAnd is E1 and E2.
	ExprAnd struct{ L, R Expr }
	// ExprOr is E1 or E2.
	ExprOr struct{ L, R Expr }
	// ExprNot is not(E) — supported by the evaluator, not by the
	// monotone datalog translation.
	ExprNot struct{ E Expr }
)

func (ExprPath) isExpr() {}
func (ExprAnd) isExpr()  {}
func (ExprOr) isExpr()   {}
func (ExprNot) isExpr()  {}

func (e ExprPath) String() string { return e.Path.String() }
func (e ExprAnd) String() string  { return andOperand(e.L) + " and " + andOperand(e.R) }
func (e ExprOr) String() string   { return e.L.String() + " or " + e.R.String() }
func (e ExprNot) String() string  { return "not(" + e.E.String() + ")" }

// andOperand prints an operand of and, parenthesizing a disjunction:
// and binds tighter than or.
func andOperand(e Expr) string {
	if _, ok := e.(ExprOr); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// HasNegation reports whether the path uses not(·) anywhere.
func (p *Path) HasNegation() bool {
	for _, s := range p.Steps {
		for _, e := range s.Preds {
			if exprHasNeg(e) {
				return true
			}
		}
	}
	return false
}

func exprHasNeg(e Expr) bool {
	switch g := e.(type) {
	case ExprNot:
		return true
	case ExprAnd:
		return exprHasNeg(g.L) || exprHasNeg(g.R)
	case ExprOr:
		return exprHasNeg(g.L) || exprHasNeg(g.R)
	case ExprPath:
		return g.Path.HasNegation()
	}
	return false
}

// expandComposite rewrites following/preceding into their standard
// compositions (ancestor-or-self / {following,preceding}-sibling /
// descendant-or-self), so downstream code handles only primitive axes.
func (p *Path) expandComposite() *Path {
	out := &Path{Absolute: p.Absolute}
	for _, s := range p.Steps {
		preds := make([]Expr, len(s.Preds))
		for i, e := range s.Preds {
			preds[i] = expandExpr(e)
		}
		switch s.Axis {
		case AxisFollowing, AxisPreceding:
			sib := AxisFollowingSibling
			if s.Axis == AxisPreceding {
				sib = AxisPrecedingSibling
			}
			out.Steps = append(out.Steps,
				Step{Axis: AxisAncestorOrSelf, Test: "*"},
				Step{Axis: sib, Test: "*"},
				Step{Axis: AxisDescendantOrSelf, Test: s.Test, Preds: preds})
		default:
			out.Steps = append(out.Steps, Step{Axis: s.Axis, Test: s.Test, Preds: preds})
		}
	}
	return out
}

func expandExpr(e Expr) Expr {
	switch g := e.(type) {
	case ExprPath:
		return ExprPath{g.Path.expandComposite()}
	case ExprAnd:
		return ExprAnd{expandExpr(g.L), expandExpr(g.R)}
	case ExprOr:
		return ExprOr{expandExpr(g.L), expandExpr(g.R)}
	case ExprNot:
		return ExprNot{expandExpr(g.E)}
	}
	return e
}
