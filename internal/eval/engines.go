package eval

import (
	"fmt"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// Engine selects an evaluation algorithm. Compiled queries run on one
// of the two grounding engines (EngineLinear, EngineBitmap); the
// set-oriented engines (semi-naive, naive, LIT) run only through
// EvalOnTree, as oracles for the differential tests, the containment
// refuter and the ABLATION-engines table.
type Engine int

const (
	// EngineLinear is the Theorem 4.2 engine: O(|P|·|dom|) over τ_ur/τ_rk.
	EngineLinear Engine = iota
	// EngineSemiNaive is generic semi-naive evaluation over τ_ur ∪
	// {child, lastchild, firstsibling, dom, child_k}.
	EngineSemiNaive
	// EngineNaive is the reference naive fixpoint (Definition 3.1).
	EngineNaive
	// EngineLIT is the monadic Datalog LIT engine (Proposition 3.7).
	EngineLIT
	// EngineBitmap evaluates the Theorem 4.2 fragment as bulk bitset
	// algebra over the arena columns (bitmap.go): monadic predicates
	// are dense node bitmaps, body atoms are column-gather kernels,
	// recursion is semi-naive on delta node-id lists.
	EngineBitmap
)

// DefaultEngine is the engine compiled queries use when none is
// chosen — and the one the command line tools and mdlogd always use.
// The bitmap engine measures faster than the linear one on every
// crawl-fleet wrapper at every page size from ~45 nodes to ~100k
// (DESIGN.md § Engine comparison); EngineLinear stays selectable as
// the paper's reference pipeline and the differential oracle.
const DefaultEngine = EngineBitmap

// String names the engine for stats attribution and error messages.
func (e Engine) String() string {
	switch e {
	case EngineLinear:
		return "linear"
	case EngineSemiNaive:
		return "seminaive"
	case EngineNaive:
		return "naive"
	case EngineLIT:
		return "lit"
	case EngineBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// fullTreeDB materializes every relation a set-oriented engine might
// need for the given program: all optional τ_ur extensions plus the
// program's child_k arity.
func fullTreeDB(p *datalog.Program, t *tree.Tree) *datalog.Database {
	return TreeDB(t, WithChild(), WithLastChild(), WithFirstSibling(), WithDom(), WithChildK(SignatureOf(p).ChildK))
}

// EvalOnTree evaluates a monadic datalog program on a tree using the
// selected engine and returns the intensional relations only, so the
// engines are interchangeable and comparable.
func EvalOnTree(p *datalog.Program, t *tree.Tree, engine Engine) (*datalog.Database, error) {
	switch engine {
	case EngineLinear:
		return LinearTree(p, t)
	case EngineBitmap:
		return BitmapTree(p, t)
	case EngineSemiNaive:
		full, err := datalog.SemiNaiveEval(p, fullTreeDB(p, t))
		if err != nil {
			return nil, err
		}
		return full.Project(p.IntensionalPreds()), nil
	case EngineNaive:
		full, err := datalog.NaiveEval(p, fullTreeDB(p, t))
		if err != nil {
			return nil, err
		}
		return full.Project(p.IntensionalPreds()), nil
	case EngineLIT:
		full, err := LITEval(p, fullTreeDB(p, t))
		if err != nil {
			return nil, err
		}
		// LITEval works on the connected-split program, whose conn_*
		// helper predicates must not leak into the comparable result.
		return full.Project(p.IntensionalPreds()), nil
	}
	return nil, fmt.Errorf("eval: unknown engine %v", engine)
}

// Query evaluates the program's distinguished query predicate on t with
// the linear engine and returns the sorted selected node ids — the
// paper's "unary query" interface.
func Query(p *datalog.Program, t *tree.Tree) ([]int, error) {
	if p.Query == "" {
		return nil, fmt.Errorf("eval: program has no distinguished query predicate")
	}
	res, err := LinearTree(p, t)
	if err != nil {
		return nil, err
	}
	return res.UnarySet(p.Query), nil
}

// Accepts implements the tree-language acceptance of Corollary 4.7: a
// monadic datalog program with an "accept" predicate accepts a tree
// iff accept(root) ∈ T_P^ω. A tree language is definable this way
// exactly if it is regular / MSO-definable.
func Accepts(p *datalog.Program, t *tree.Tree, acceptPred string) (bool, error) {
	if acceptPred == "" {
		acceptPred = "accept"
	}
	res, err := LinearTree(p, t)
	if err != nil {
		return false, err
	}
	return res.Has(acceptPred, 0), nil // the root
}

// SameResults compares the extensions of the given predicates in two
// result databases; it returns a description of the first difference,
// or "" if they agree.
func SameResults(a, b *datalog.Database, preds []string) string {
	for _, pred := range preds {
		as, bs := a.UnarySet(pred), b.UnarySet(pred)
		if len(as) != len(bs) {
			return fmt.Sprintf("%s: %v vs %v", pred, as, bs)
		}
		for i := range as {
			if as[i] != bs[i] {
				return fmt.Sprintf("%s: %v vs %v", pred, as, bs)
			}
		}
		// Propositional predicates: compare presence of the empty tuple.
		ra, rb := a.RelOrNil(pred), b.RelOrNil(pred)
		pa := ra != nil && ra.Arity == 0 && ra.Len() > 0
		pb := rb != nil && rb.Arity == 0 && rb.Len() > 0
		if pa != pb {
			return fmt.Sprintf("%s (propositional): %v vs %v", pred, pa, pb)
		}
	}
	return ""
}
