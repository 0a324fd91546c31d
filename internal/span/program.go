package span

// The spanner language surface (LangSpanner). A program mixes ordinary
// monadic-datalog rules — which select candidate nodes and compile
// through the standard TMNF/optimizer/grounding pipeline — with span
// rules that extract strings from those nodes:
//
//	% node part: plain monadic datalog over τ_ur
//	cell(X)  :- label_td(Y), firstchild(Y, X), label_#text(X).
//	?- cell.
//
//	% span rules: head has the node variable plus ≥1 span variables
//	price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>\d+\.\d\d)/, A).
//	link(X, U)  :- label_a(X), attr(X, "href", U).
//
// Span primitives (evaluated left to right; a span variable must be
// bound before use — the safety condition that keeps enumeration
// finite):
//
//	text(X, S)            binds S to X's character data (whole span)
//	attr(X, "name", S)    binds S to the value of attribute name on X
//	match(S, /re/, V...)  binds V1..Vk to the regex formula's capture
//	                      variables (positionally) for EVERY match of
//	                      the formula inside S
//	within(S1, S2)        filter: S1 lies inside S2 (same source)
//	before(S1, S2)        filter: S1 ends before S2 starts (same source)
//
// Any other body atom must be unary over the rule's node variable and
// names a τ_ur / datalog predicate; the conjunction of those node
// atoms becomes a synthesized candidate predicate evaluated by the
// node engine (NodeProgram).

import (
	"fmt"
	"strings"

	"mdlog/internal/datalog"
)

// StepKind enumerates the span-atom primitives.
type StepKind int

const (
	// StepText binds Out to the node's character data.
	StepText StepKind = iota
	// StepAttr binds Out to the value of attribute Attr on the node.
	StepAttr
	// StepMatch runs formula Re over the span Src, binding Outs.
	StepMatch
	// StepWithin filters: Src lies within Arg2.
	StepWithin
	// StepBefore filters: Src ends at or before Arg2's start.
	StepBefore
)

// Step is one span atom of a rule body, in evaluation order.
type Step struct {
	// Kind selects the primitive.
	Kind StepKind
	// Out is the span variable bound by text/attr.
	Out string
	// Attr is the attribute name (StepAttr).
	Attr string
	// Src is the input span variable (match/within/before).
	Src string
	// Arg2 is the second span variable (within/before).
	Arg2 string
	// Re is the parsed formula (StepMatch).
	Re *Formula
	// Outs are the capture output variables (StepMatch), positionally
	// bound to Re.Vars.
	Outs []string
}

// Rule is one span rule: head name(NodeVar, HeadVars...) with a body
// of node atoms plus span steps.
type Rule struct {
	// Name is the span relation the rule defines.
	Name string
	// NodeVar is the head's first argument — the node the spans hang off.
	NodeVar string
	// HeadVars are the span variables the head emits, in head order.
	HeadVars []string
	// NodeAtoms are the unary node predicates applied to NodeVar; their
	// conjunction selects the rule's candidate nodes ("dom" when empty).
	NodeAtoms []string
	// Steps are the span atoms in body (= evaluation) order.
	Steps []Step
}

// Program is a parsed spanner program: the monadic-datalog node part
// plus the span rules.
type Program struct {
	// Node is the node-level program (user rules and ?- directive only;
	// see NodeProgram for the synthesized candidate predicates).
	Node *datalog.Program
	// Rules are the span rules in source order.
	Rules []Rule

	src string
}

// Source returns the program's source text.
func (p *Program) Source() string { return p.src }

// RuleNames returns the span relation names in source order.
func (p *Program) RuleNames() []string {
	out := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		out[i] = r.Name
	}
	return out
}

// candPred names rule i's synthesized candidate predicate in the node
// program (NodeProgram rejects the pathological source that defines
// the same name itself).
func candPred(i int) string { return fmt.Sprintf("spn%d<nodes>", i) }

// candidate names rule i's candidate predicate. A node part that is a
// single intensional predicate serves as its own candidate — a
// synthesized copy rule would double the linear engine's grounding
// time for nothing. Every other shape (conjunction, bare
// EDB atom, empty ⇒ dom) gets the reserved spn<i>⟨nodes⟩ rule.
func (p *Program) candidate(i int) string {
	r := &p.Rules[i]
	if len(r.NodeAtoms) == 1 {
		for _, ur := range p.Node.Rules {
			if ur.Head.Pred == r.NodeAtoms[0] {
				return r.NodeAtoms[0]
			}
		}
	}
	return candPred(i)
}

// NodeProgram returns the monadic-datalog node part ready for the
// compile pipeline: the user's rules plus one synthesized rule
//
//	spn<i>⟨nodes⟩(X) :- <node atoms of rule i>.
//
// per span rule, and the candidate predicate names in rule order. The
// caller compiles it like any datalog program (TMNF, optimizer,
// grounding engine) with the candidate predicates among the visible
// roots; the Evaluator then reads their extensions back.
func (p *Program) NodeProgram() (*datalog.Program, []string, error) {
	np := &datalog.Program{Query: p.Node.Query}
	np.Rules = append(np.Rules, p.Node.Rules...)
	cands := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		for _, ur := range p.Node.Rules {
			if ur.Head.Pred == candPred(i) {
				return nil, nil, fmt.Errorf("span: predicate %q is reserved for the compiler", candPred(i))
			}
		}
		cands[i] = p.candidate(i)
		if cands[i] != candPred(i) {
			continue // an existing intensional predicate serves directly
		}
		rule := datalog.Rule{Head: datalog.At(cands[i], datalog.V("X"))}
		if len(r.NodeAtoms) == 0 {
			rule.Body = append(rule.Body, datalog.At("dom", datalog.V("X")))
		}
		for _, pred := range r.NodeAtoms {
			rule.Body = append(rule.Body, datalog.At(pred, datalog.V("X")))
		}
		np.Rules = append(np.Rules, rule)
	}
	if err := np.Check(); err != nil {
		return nil, nil, fmt.Errorf("span: node program: %w", err)
	}
	return np, cands, nil
}

// ParseProgram parses a spanner program: '.'-terminated statements
// where any rule whose head has two or more arguments is a span rule
// and everything else (facts, unary rules, the ?- directive) is the
// monadic-datalog node part. Regex literals /.../ and quoted strings
// are opaque to statement splitting; % comments run to end of line.
func ParseProgram(src string) (*Program, error) {
	stmts, err := splitStatements(src)
	if err != nil {
		return nil, err
	}
	p := &Program{src: src}
	var dl []string
	for _, st := range stmts {
		span, err := maybeSpanRule(st)
		if err != nil {
			return nil, err
		}
		if span == nil {
			dl = append(dl, st.text)
			continue
		}
		for _, prev := range p.Rules {
			if prev.Name == span.Name {
				return nil, fmt.Errorf("span: line %d: duplicate span rule %q (one rule per span relation)", st.line, span.Name)
			}
		}
		p.Rules = append(p.Rules, *span)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("span: program has no span rules (a head needs a node variable plus at least one span variable; use lang datalog for node-only queries)")
	}
	node, err := datalog.ParseProgram(strings.Join(dl, "\n"))
	if err != nil {
		return nil, err
	}
	p.Node = node
	for _, r := range p.Rules {
		for _, ip := range node.Rules {
			if ip.Head.Pred == r.Name {
				return nil, fmt.Errorf("span: %q names both a span relation and a node predicate", r.Name)
			}
		}
	}
	return p, nil
}

// MustParseProgram is ParseProgram, panicking on error.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

type stmt struct {
	text string
	line int
}

// splitStatements splits src into '.'-terminated statements. '%'
// comments, "..." strings and /.../ regex literals (recognized where a
// term may start: after '(' or ',') are opaque, so the '.' inside
// /\d+\.\d\d/ never terminates a statement.
func splitStatements(src string) ([]stmt, error) {
	var out []stmt
	line, start := 1, 0
	startLine := 1
	lastSig := byte(0) // last significant byte seen (term-start context)
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\n':
			line++
		case c == '%':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			line++
		case c == '"':
			i++
			for i < len(src) && src[i] != '"' {
				if src[i] == '\\' {
					i++
				}
				if i < len(src) && src[i] == '\n' {
					line++
				}
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("span: line %d: unterminated string", line)
			}
			lastSig = '"'
		case c == '/' && (lastSig == '(' || lastSig == ','):
			i++
			for i < len(src) && src[i] != '/' {
				if src[i] == '\\' {
					i++
				}
				if i < len(src) && src[i] == '\n' {
					line++
				}
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("span: line %d: unterminated regex literal", line)
			}
			lastSig = '/'
		case c == '.':
			text := strings.TrimSpace(src[start : i+1])
			if text != "." {
				out = append(out, stmt{text: text, line: startLine})
			}
			start = i + 1
			startLine = line
			lastSig = 0
		case c == ' ' || c == '\t' || c == '\r':
			// insignificant
		default:
			if strings.TrimSpace(src[start:i]) == "" {
				startLine = line
			}
			lastSig = c
		}
	}
	if rest := strings.TrimSpace(src[start:]); rest != "" {
		return nil, fmt.Errorf("span: line %d: statement missing terminating '.'", startLine)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Span-rule parsing.

type ruleParser struct {
	src  string
	pos  int
	line int
}

func (p *ruleParser) errf(format string, args ...any) error {
	return fmt.Errorf("span: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *ruleParser) ws() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			p.pos++
			continue
		}
		break
	}
}

func (p *ruleParser) eof() bool { p.ws(); return p.pos >= len(p.src) }

func (p *ruleParser) consume(c byte) bool {
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func isPredStart(c byte) bool { return c >= 'a' && c <= 'z' || c == '_' || c == '#' }
func isPredByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '#' || c == '\'' || c == '-' || c == '<' || c == '>'
}

func (p *ruleParser) ident() (string, bool) {
	p.ws()
	if p.pos >= len(p.src) || !isPredStart(p.src[p.pos]) {
		return "", false
	}
	start := p.pos
	for p.pos < len(p.src) && isPredByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], true
}

// arg is one span-atom argument.
type arg struct {
	kind byte // 'V' variable, 'S' string, 'R' regex
	text string
}

func (p *ruleParser) arg() (arg, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return arg{}, p.errf("expected an argument")
	}
	c := p.src[p.pos]
	switch {
	case c >= 'A' && c <= 'Z':
		start := p.pos
		for p.pos < len(p.src) && isPredByte(p.src[p.pos]) {
			p.pos++
		}
		return arg{kind: 'V', text: p.src[start:p.pos]}, nil
	case c == '"':
		p.pos++
		var sb strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '"' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
			}
			sb.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			return arg{}, p.errf("unterminated string")
		}
		p.pos++
		return arg{kind: 'S', text: sb.String()}, nil
	case c == '/':
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != '/' {
			if p.src[p.pos] == '\\' {
				p.pos++
			}
			p.pos++
		}
		if p.pos >= len(p.src) {
			return arg{}, p.errf("unterminated regex literal")
		}
		re := p.src[start:p.pos]
		p.pos++
		return arg{kind: 'R', text: re}, nil
	}
	return arg{}, p.errf("expected a variable, string or /regex/, got %q", c)
}

// atom parses name(args...).
func (p *ruleParser) atom() (string, []arg, error) {
	name, ok := p.ident()
	if !ok {
		return "", nil, p.errf("expected a predicate name")
	}
	if !p.consume('(') {
		return "", nil, p.errf("expected '(' after %s", name)
	}
	var args []arg
	for {
		a, err := p.arg()
		if err != nil {
			return "", nil, err
		}
		args = append(args, a)
		if p.consume(')') {
			return name, args, nil
		}
		if !p.consume(',') {
			return "", nil, p.errf("expected ',' or ')' in atom %s", name)
		}
	}
}

// maybeSpanRule parses st as a span rule, returning nil (no error)
// when its head is unary or it is a directive — those belong to the
// datalog node part.
func maybeSpanRule(st stmt) (*Rule, error) {
	p := &ruleParser{src: st.text, line: st.line}
	if p.eof() || !isPredStart(p.src[p.pos]) {
		return nil, nil // "?-" directive etc.
	}
	name, args, err := p.atom()
	if err != nil {
		// Not parseable as an atom head here; let the datalog parser
		// produce its own error for the statement.
		return nil, nil
	}
	if len(args) < 2 {
		return nil, nil
	}
	r := &Rule{Name: name}
	for i, a := range args {
		if a.kind != 'V' {
			return nil, p.errf("span rule %s: head arguments must be variables", name)
		}
		if i == 0 {
			r.NodeVar = a.text
		} else {
			r.HeadVars = append(r.HeadVars, a.text)
		}
	}
	if !p.consume(':') || !p.consume('-') {
		return nil, p.errf("span rule %s: expected ':-' after the head (span relations need a body)", name)
	}
	bound := map[string]bool{}
	needBound := func(an string, v string) error {
		if v == r.NodeVar {
			return p.errf("%s: %s is the node variable, not a span variable", an, v)
		}
		if !bound[v] {
			return p.errf("%s: span variable %s is used before it is bound (atoms evaluate left to right)", an, v)
		}
		return nil
	}
	bind := func(an, v string) error {
		if v == r.NodeVar {
			return p.errf("%s: cannot bind the node variable %s as a span", an, v)
		}
		if bound[v] {
			return p.errf("%s: span variable %s is bound twice", an, v)
		}
		bound[v] = true
		return nil
	}
	for {
		an, aargs, err := p.atom()
		if err != nil {
			return nil, err
		}
		switch an {
		case "text":
			if len(aargs) != 2 || aargs[0].kind != 'V' || aargs[1].kind != 'V' {
				return nil, p.errf("text takes (NodeVar, SpanVar)")
			}
			if aargs[0].text != r.NodeVar {
				return nil, p.errf("text: first argument must be the node variable %s", r.NodeVar)
			}
			if err := bind("text", aargs[1].text); err != nil {
				return nil, err
			}
			r.Steps = append(r.Steps, Step{Kind: StepText, Out: aargs[1].text})
		case "attr":
			if len(aargs) != 3 || aargs[0].kind != 'V' || aargs[1].kind != 'S' || aargs[2].kind != 'V' {
				return nil, p.errf(`attr takes (NodeVar, "name", SpanVar)`)
			}
			if aargs[0].text != r.NodeVar {
				return nil, p.errf("attr: first argument must be the node variable %s", r.NodeVar)
			}
			if err := bind("attr", aargs[2].text); err != nil {
				return nil, err
			}
			r.Steps = append(r.Steps, Step{Kind: StepAttr, Attr: aargs[1].text, Out: aargs[2].text})
		case "match":
			if len(aargs) < 2 || aargs[0].kind != 'V' || aargs[1].kind != 'R' {
				return nil, p.errf("match takes (SpanVar, /regex/, OutVar...)")
			}
			if err := needBound("match", aargs[0].text); err != nil {
				return nil, err
			}
			f, err := ParseFormula(aargs[1].text)
			if err != nil {
				return nil, fmt.Errorf("span: line %d: %w", st.line, err)
			}
			step := Step{Kind: StepMatch, Src: aargs[0].text, Re: f}
			for _, oa := range aargs[2:] {
				if oa.kind != 'V' {
					return nil, p.errf("match: capture outputs must be variables")
				}
				if err := bind("match", oa.text); err != nil {
					return nil, err
				}
				step.Outs = append(step.Outs, oa.text)
			}
			if len(step.Outs) != len(f.Vars) {
				return nil, p.errf("match: formula /%s/ has %d capture variables but %d output variables were given",
					f.Source(), len(f.Vars), len(step.Outs))
			}
			r.Steps = append(r.Steps, step)
		case "within", "before":
			if len(aargs) != 2 || aargs[0].kind != 'V' || aargs[1].kind != 'V' {
				return nil, p.errf("%s takes (SpanVar, SpanVar)", an)
			}
			for _, a := range aargs {
				if err := needBound(an, a.text); err != nil {
					return nil, err
				}
			}
			kind := StepWithin
			if an == "before" {
				kind = StepBefore
			}
			r.Steps = append(r.Steps, Step{Kind: kind, Src: aargs[0].text, Arg2: aargs[1].text})
		default:
			if len(aargs) != 1 || aargs[0].kind != 'V' {
				return nil, p.errf("node atom %s must be unary over the node variable", an)
			}
			if aargs[0].text != r.NodeVar {
				return nil, p.errf("node atom %s must apply to the node variable %s (one node per span rule)", an, r.NodeVar)
			}
			r.NodeAtoms = append(r.NodeAtoms, an)
		}
		if p.consume('.') {
			break
		}
		if !p.consume(',') {
			return nil, p.errf("expected ',' or '.' in the body of span rule %s", name)
		}
	}
	for _, hv := range r.HeadVars {
		if !bound[hv] {
			return nil, p.errf("span rule %s: head variable %s is never bound in the body", name, hv)
		}
	}
	if !p.eof() {
		return nil, p.errf("trailing input after span rule %s", name)
	}
	return r, nil
}
