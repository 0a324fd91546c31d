package mso

import (
	"fmt"

	"mdlog/internal/tree"
)

// This file implements the direct (textbook) semantics of MSO over
// trees. It enumerates set assignments explicitly and is therefore
// exponential; it exists as the reference point against which the
// automaton-based evaluator and the Theorem 4.4 datalog translation
// are verified on small trees, and as the baseline that motivates the
// paper's complexity argument (MSO evaluation is PSPACE-complete in
// combined complexity).

// maxNaiveDom bounds the domain for the naive evaluator: set variables
// are represented as uint64 bitmasks.
const maxNaiveDom = 64

// Env assigns first-order variables to node ids and second-order
// variables to node sets (bitmasks over document-order ids).
type Env struct {
	FO map[Var]int
	SO map[Var]uint64
}

// NewEnv returns an empty assignment.
func NewEnv() *Env { return &Env{FO: map[Var]int{}, SO: map[Var]uint64{}} }

// NaiveEval decides t ⊨ f under the given environment by direct
// recursion. The tree must have at most 64 nodes.
func NaiveEval(f Formula, t *tree.Tree, env *Env) (bool, error) {
	if t.Size() > maxNaiveDom {
		return false, fmt.Errorf("mso: naive evaluation supports at most %d nodes, got %d", maxNaiveDom, t.Size())
	}
	if env == nil {
		env = NewEnv()
	}
	if err := Validate(f); err != nil {
		return false, err
	}
	return naiveEval(f, t, env)
}

func naiveEval(f Formula, t *tree.Tree, env *Env) (bool, error) {
	lookupFO := func(v Var) (*tree.Node, error) {
		id, ok := env.FO[v]
		if !ok {
			return nil, fmt.Errorf("mso: unbound first-order variable %s", v)
		}
		if id < 0 || id >= t.Size() {
			return nil, fmt.Errorf("mso: variable %s bound to invalid node %d", v, id)
		}
		return t.View()[id], nil
	}
	switch g := f.(type) {
	case True:
		return true, nil
	case False:
		return false, nil
	case Label:
		n, err := lookupFO(g.X)
		if err != nil {
			return false, err
		}
		return n.Label == g.Label, nil
	case Un:
		n, err := lookupFO(g.X)
		if err != nil {
			return false, err
		}
		switch g.Kind {
		case UnRoot:
			return n.IsRoot(), nil
		case UnLeaf:
			return n.IsLeaf(), nil
		case UnLastSibling:
			return n.IsLastSibling(), nil
		}
	case Bin:
		x, err := lookupFO(g.X)
		if err != nil {
			return false, err
		}
		y, err := lookupFO(g.Y)
		if err != nil {
			return false, err
		}
		switch g.Kind {
		case BinFirstChild:
			return x.FirstChild() == y && y != nil, nil
		case BinNextSibling:
			return x.NextSibling() == y && y != nil, nil
		case BinChild:
			return y.Parent == x, nil
		case BinBefore:
			return x.ID < y.ID, nil
		case BinEq:
			return x == y, nil
		}
	case In:
		n, err := lookupFO(g.X)
		if err != nil {
			return false, err
		}
		set, ok := env.SO[g.S]
		if !ok {
			return false, fmt.Errorf("mso: unbound second-order variable %s", g.S)
		}
		return set&(1<<uint(n.ID)) != 0, nil
	case Subset:
		s, ok := env.SO[g.S]
		if !ok {
			return false, fmt.Errorf("mso: unbound second-order variable %s", g.S)
		}
		u, ok := env.SO[g.T]
		if !ok {
			return false, fmt.Errorf("mso: unbound second-order variable %s", g.T)
		}
		return s&^u == 0, nil
	case Not:
		v, err := naiveEval(g.F, t, env)
		return !v, err
	case And:
		l, err := naiveEval(g.L, t, env)
		if err != nil || !l {
			return false, err
		}
		return naiveEval(g.R, t, env)
	case Or:
		l, err := naiveEval(g.L, t, env)
		if err != nil || l {
			return l, err
		}
		return naiveEval(g.R, t, env)
	case Exists:
		return naiveQuant(g.V, g.Body, t, env, false)
	case Forall:
		return naiveQuant(g.V, g.Body, t, env, true)
	}
	return false, fmt.Errorf("mso: unknown formula %T", f)
}

func naiveQuant(v Var, body Formula, t *tree.Tree, env *Env, universal bool) (bool, error) {
	if v.IsSet() {
		old, had := env.SO[v]
		defer restoreSO(env, v, old, had)
		n := uint(t.Size())
		var limit uint64 = 1 << n
		for set := uint64(0); ; set++ {
			if n < 64 && set >= limit {
				break
			}
			env.SO[v] = set
			ok, err := naiveEval(body, t, env)
			if err != nil {
				return false, err
			}
			if universal && !ok {
				return false, nil
			}
			if !universal && ok {
				return true, nil
			}
			if n == 64 && set == ^uint64(0) {
				break
			}
		}
		return universal, nil
	}
	old, had := env.FO[v]
	defer restoreFO(env, v, old, had)
	for id := 0; id < t.Size(); id++ {
		env.FO[v] = id
		ok, err := naiveEval(body, t, env)
		if err != nil {
			return false, err
		}
		if universal && !ok {
			return false, nil
		}
		if !universal && ok {
			return true, nil
		}
	}
	return universal, nil
}

func restoreSO(env *Env, v Var, old uint64, had bool) {
	if had {
		env.SO[v] = old
	} else {
		delete(env.SO, v)
	}
}

func restoreFO(env *Env, v Var, old int, had bool) {
	if had {
		env.FO[v] = old
	} else {
		delete(env.FO, v)
	}
}

// NaiveSelect evaluates the unary query f(freeVar) on t by direct
// enumeration of candidate nodes (reference semantics for Theorem 4.4
// tests). The formula must have exactly freeVar free.
func NaiveSelect(f Formula, freeVar Var, t *tree.Tree) ([]int, error) {
	fv := FreeVars(f)
	if len(fv) != 1 || fv[0] != freeVar {
		return nil, fmt.Errorf("mso: formula must have exactly %s free, has %v", freeVar, fv)
	}
	var out []int
	env := NewEnv()
	for id := 0; id < t.Size(); id++ {
		env.FO[freeVar] = id
		ok, err := naiveEval(f, t, env)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, id)
		}
	}
	return out, nil
}

// NaiveSentence decides t ⊨ f for a sentence (no free variables).
func NaiveSentence(f Formula, t *tree.Tree) (bool, error) {
	if fv := FreeVars(f); len(fv) != 0 {
		return false, fmt.Errorf("mso: sentence has free variables %v", fv)
	}
	return NaiveEval(f, t, nil)
}
