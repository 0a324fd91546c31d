package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseProgram parses a datalog program in conventional textual syntax:
//
//	% comments run to end of line
//	even(X) :- b0(X), label_a(X).
//	b0(X)   :- leaf(X).
//	fact(3).
//
// Variables begin with an uppercase letter; constants are nonnegative
// integers (domain element ids); predicate names begin with a lowercase
// letter, '_' or '#' and may contain letters, digits and _ # ' - < >.
// A directive "?- pred." sets the program's query predicate.
func ParseProgram(src string) (*Program, error) {
	p := &progParser{src: src, line: 1}
	prog := &Program{}
	for {
		p.skipWS()
		if p.eof() {
			break
		}
		if p.peekStr("?-") {
			p.pos += 2
			p.skipWS()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			p.skipWS()
			if !p.consume('.') {
				return nil, p.errf("expected '.' after query directive")
			}
			prog.Query = name
			continue
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if err := prog.Check(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParseProgram is ParseProgram, panicking on error.
func MustParseProgram(src string) *Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

type progParser struct {
	src  string
	pos  int
	line int
}

func (p *progParser) eof() bool { return p.pos >= len(p.src) }

func (p *progParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("datalog: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *progParser) skipWS() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '%':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *progParser) peekStr(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *progParser) consume(c byte) bool {
	if !p.eof() && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c == '_' || c == '#'
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '#' || c == '\'' || c == '-' || c == '<' || c == '>'
}

func (p *progParser) ident() (string, error) {
	if p.eof() || !isIdentStart(p.src[p.pos]) {
		return "", p.errf("expected predicate name")
	}
	start := p.pos
	for !p.eof() && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *progParser) term() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("expected term")
	}
	c := p.src[p.pos]
	switch {
	case c >= 'A' && c <= 'Z':
		start := p.pos
		for !p.eof() && isIdentByte(p.src[p.pos]) {
			p.pos++
		}
		return V(p.src[start:p.pos]), nil
	case c >= '0' && c <= '9':
		start := p.pos
		for !p.eof() && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil {
			return Term{}, p.errf("bad constant %q", p.src[start:p.pos])
		}
		return C(n), nil
	default:
		return Term{}, p.errf("expected variable or constant, got %q", c)
	}
}

func (p *progParser) atom() (Atom, error) {
	name, err := p.ident()
	if err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: name}
	p.skipWS()
	if !p.consume('(') {
		return a, nil // propositional atom
	}
	for {
		p.skipWS()
		t, err := p.term()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		p.skipWS()
		if p.consume(')') {
			return a, nil
		}
		if !p.consume(',') {
			return Atom{}, p.errf("expected ',' or ')' in atom %s", name)
		}
	}
}

func (p *progParser) rule() (Rule, error) {
	head, err := p.atom()
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	p.skipWS()
	if p.consume('.') {
		return r, nil
	}
	if !p.peekStr(":-") {
		return Rule{}, p.errf("expected ':-' or '.' after head %s", head)
	}
	p.pos += 2
	for {
		p.skipWS()
		b, err := p.atom()
		if err != nil {
			return Rule{}, err
		}
		r.Body = append(r.Body, b)
		p.skipWS()
		if p.consume('.') {
			return r, nil
		}
		if !p.consume(',') {
			return Rule{}, p.errf("expected ',' or '.' in body of rule for %s", head.Pred)
		}
	}
}
