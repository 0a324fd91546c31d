// Package mdlog is a from-scratch Go implementation of
//
//	Georg Gottlob and Christoph Koch:
//	"Monadic Datalog and the Expressive Power of Languages for Web
//	Information Extraction", PODS 2002.
//
// The paper proves six query formalisms over trees equally expressive;
// this package makes them equally usable. Any of them compiles — once
// — through [Compile] into a [CompiledQuery] that runs over any number
// of documents, concurrently:
//
//	Language          Source syntax                         Paper
//	LangDatalog       p(X) :- label_td(X), child(X,Y).      Section 3, Thm 4.2
//	LangTMNF          datalog already in normal form        Definition 5.1
//	LangMSO           exists y (child(x,y) & label_b(y))    Section 2, Thm 4.4
//	LangXPath         //table/tr[td/b]/td                   Section 7 remark
//	LangCaterpillar   child*.label_td.child.label_b         Lemma 5.9, Cor 5.12
//	LangElog          item(x) :- root(r), subelem(p, r, x)  Section 6, Cor 6.4
//	LangSpanner       p(X,A) :- c(X), text(X,S),            extension: document
//	                       match(S, /(?<a>\d+)/, A).        spanners
//
// (Query automata, the sixth formalism of the equivalence, arrive via
// their datalog translations — [QAr.ToDatalog] / [SQAu] — and
// LangDatalog.) Each language normalizes onto one of three prepared
// plans: the Theorem 4.2 linear-time datalog engine (via the TMNF
// rewriting of Theorem 5.2 where needed), a deterministic tree
// automaton, or a direct evaluator for the fragments with no positive
// datalog translation. The seventh language steps beyond the paper's
// node-selecting equivalence: a spanner program pairs monadic-datalog
// node rules with span rules whose regex formulas compile to
// variable-set automata over node text and attribute values, returning
// span relations ([CompiledQuery.Spans]) instead of bare node ids.
//
// Documents come from [ParseHTML] / [ParseHTMLReader] (streaming,
// arena-backed) or term syntax via [ParseTree]; [Map] and [MapAll]
// fan any run — a query, a wrapper, a whole set — over document
// streams and collections with a bounded worker pool. Many wrappers over the same pages fuse into a
// [QuerySet] — one shared evaluation pass per document, per-wrapper
// results and error isolation. cmd/mdlogd serves a registry of
// compiled wrappers over HTTP (internal/service), including fused
// all-wrapper extraction (/extractall, /batchall).
//
// This file is a façade re-exporting the user-facing surface of the
// internal packages; see ARCHITECTURE.md for the theorem-by-theorem
// map of the paper onto the code, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the reproduction of the paper's results.
package mdlog

import (
	"io"

	"mdlog/internal/caterpillar"
	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/mso"
	"mdlog/internal/qa"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
	"mdlog/internal/wrap"
	"mdlog/internal/xpath"
)

// Trees (Section 2).
type (
	// Tree is an ordered unranked labeled tree with document-order ids.
	Tree = tree.Tree
	// Node is a tree node.
	Node = tree.Node
	// RankedAlphabet assigns arities for ranked trees (τ_rk).
	RankedAlphabet = tree.RankedAlphabet
)

// ParseTree reads term syntax, e.g. "a(b,c(d))".
func ParseTree(s string) (*Tree, error) { return tree.Parse(s) }

// NewTree indexes a hand-built tree.
func NewTree(root *Node) *Tree { return tree.NewTree(root) }

// NewNode builds a node with children.
func NewNode(label string, children ...*Node) *Node { return tree.New(label, children...) }

// ParseHTML parses an HTML document into its tree (the pre-parsed
// document model the paper assumes as a front end).
func ParseHTML(src string) *Tree { return html.Parse(src) }

// ParseHTMLReader parses an HTML document from a stream: a single
// tokenizer pass builds the arena (struct-of-arrays) representation
// the evaluation engines index directly, without materializing the
// source as one string. The only possible error is a read error.
func ParseHTMLReader(r io.Reader) (*Tree, error) { return html.ParseReader(r) }

// Datalog (Section 3).
type (
	// Program is a datalog program.
	Program = datalog.Program
	// Rule is a datalog rule.
	Rule = datalog.Rule
	// Atom is a datalog atom.
	Atom = datalog.Atom
	// Term is a variable or constant.
	Term = datalog.Term
	// Database is a finite relational structure.
	Database = datalog.Database
)

// ParseProgram reads datalog syntax ("p(X) :- q(X,Y)." with an
// optional "?- p." query directive).
func ParseProgram(src string) (*Program, error) { return datalog.ParseProgram(src) }

// TreeDB materializes τ_ur (see eval options for extensions).
func TreeDB(t *Tree, opts ...eval.TreeDBOption) *Database { return eval.TreeDB(t, opts...) }

// Engine selects the grounding engine a compiled query runs on (see
// WithEngine): the two engines that evaluate the Theorem 4.2 fragment
// every monadic datalog program over trees normalizes into
// (Theorem 5.2).
type Engine = eval.Engine

const (
	// EngineLinear is the Theorem 4.2 O(|P|·|dom|) engine.
	EngineLinear = eval.EngineLinear
	// EngineBitmap evaluates the same Theorem 4.2 fragment as
	// EngineLinear as bulk bitset algebra over the arena columns.
	EngineBitmap = eval.EngineBitmap
)

// MSO (Sections 2 and 4.2).
type (
	// MSOFormula is a monadic second-order formula over τ_ur.
	MSOFormula = mso.Formula
	// MSOQuery is a compiled unary MSO query.
	MSOQuery = mso.UnaryQuery
	// MSOSentence is a compiled MSO sentence (regular tree language).
	MSOSentence = mso.Sentence
)

// ParseMSO reads an MSO formula, e.g.
// "exists y (child(x,y) & label_b(y))".
func ParseMSO(src string) (MSOFormula, error) { return mso.Parse(src) }

// CompileMSOQuery compiles φ(x) to a deterministic tree automaton for
// linear-time evaluation (Select) and datalog generation (ToDatalog —
// the constructive Theorem 4.4).
func CompileMSOQuery(f MSOFormula) (*MSOQuery, error) { return mso.CompileQuery(f) }

// CompileMSOSentence compiles a sentence (Proposition 2.1).
func CompileMSOSentence(f MSOFormula) (*MSOSentence, error) { return mso.CompileSentence(f) }

// Query automata (Section 4.3).
type (
	// QAr is a ranked query automaton (Definition 4.8).
	QAr = qa.QAr
	// SQAu is a strong unranked query automaton (Definition 4.12).
	SQAu = qa.SQAu
)

// TMNF (Section 5).

// ToTMNF rewrites a monadic datalog program over τ_ur ∪ {child,
// lastchild} into the Tree-Marking Normal Form over τ_ur
// (Theorem 5.2).
func ToTMNF(p *Program) (*Program, error) { return tmnf.Transform(p) }

// IsTMNF validates Definition 5.1.
func IsTMNF(p *Program) error { return tmnf.IsTMNF(p) }

// Caterpillar expressions (Section 2, Lemma 5.9, Corollary 5.12).
type CaterpillarExpr = caterpillar.Expr

// ParseCaterpillar reads e.g. "child+ | (child^-1)*.nextsibling+.child*".
func ParseCaterpillar(src string) (CaterpillarExpr, error) { return caterpillar.Parse(src) }

// Elog (Section 6).
type (
	// ElogProgram is an Elog⁻ / Elog⁻Δ program.
	ElogProgram = elog.Program
	// ElogBuilder is the visual-specification session of Section 6.2.
	ElogBuilder = elog.Builder
)

// ParseElog reads Elog⁻ syntax, e.g.
//
//	item(x) :- root(x0), subelem("table._.tr", x0, x).
func ParseElog(src string) (*ElogProgram, error) { return elog.ParseProgram(src) }

// NewElogBuilder starts a visual wrapper-specification session on an
// example document.
func NewElogBuilder(doc *Tree) *ElogBuilder { return elog.NewBuilder(doc) }

// Core XPath (the Section 7 remark: Core XPath maps to monadic
// datalog and inherits its evaluation bounds).
type XPath = xpath.Path

// ParseXPath reads a Core XPath expression, e.g. "//table/tr[td/b]/td".
func ParseXPath(src string) (*XPath, error) { return xpath.Parse(src) }

// XPathToDatalog translates a positive Core XPath query into monadic
// datalog over τ_ur ∪ {child}; compose with ToTMNF for the linear-time
// engine.
func XPathToDatalog(p *XPath, queryPred string) (*Program, error) {
	return xpath.ToDatalog(p, queryPred)
}

// Wrapping (Section 6 intro).

// Assignment maps patterns to selected nodes.
type Assignment = wrap.Assignment
