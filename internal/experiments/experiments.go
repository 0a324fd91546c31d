// Package experiments regenerates the quantitative results of the
// reproduction: every complexity claim of Gottlob & Koch (PODS 2002)
// becomes a measured scaling table, and Example 4.21 becomes the
// query-automaton-vs-datalog separation series. cmd/benchtables prints
// these tables; EXPERIMENTS.md archives a snapshot with commentary.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/mso"
	"mdlog/internal/paperex"
	"mdlog/internal/qa"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
)

// Table is one experiment's result table.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   string
}

// Markdown renders the table.
func (t Table) Markdown() string {
	out := fmt.Sprintf("### %s — %s\n\n", t.ID, t.Title)
	out += "| " + join(t.Headers) + " |\n|"
	for range t.Headers {
		out += "---|"
	}
	out += "\n"
	for _, r := range t.Rows {
		out += "| " + join(r) + " |\n"
	}
	if t.Notes != "" {
		out += "\n" + t.Notes + "\n"
	}
	return out
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += " | "
		}
		out += s
	}
	return out
}

// Config scales the experiment sizes.
type Config struct {
	// Quick shrinks sizes for smoke runs.
	Quick bool
}

// timeIt measures f by running it repeatedly until 60ms have
// accumulated (at least 5 runs), returning the minimum duration —
// robust against GC pauses and scheduler noise.
func timeIt(f func()) time.Duration {
	f() // warm-up
	var total, best time.Duration
	runs := 0
	for total < 60*time.Millisecond || runs < 5 {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		if best == 0 || d < best {
			best = d
		}
		runs++
		if runs >= 1000 {
			break
		}
	}
	return best
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6) }

func perUnit(d time.Duration, n int) string {
	return fmt.Sprintf("%.0f", float64(d.Nanoseconds())/float64(n))
}

// catalog is the single registry of experiments; All and Index both
// derive from it so the two can never drift.
var catalog = []struct {
	ID, Title string
	Run       func(Config) Table
}{
	{"CLAIM-T42-data", "Theorem 4.2: linear data complexity", Theorem42Data},
	{"CLAIM-T42-program", "Theorem 4.2: linear program complexity", Theorem42Program},
	{"ABLATION-engines", "Engine ablation: linear vs LIT vs semi-naive vs naive", EnginesAblation},
	{"CLAIM-GROUND", "Proposition 3.5: ground program evaluation", GroundLinear},
	{"CLAIM-GUARD", "Proposition 3.6: guarded program evaluation", GuardedScaling},
	{"FIG-EX421", "Example 4.21: QA runs vs datalog translation", Example421Separation},
	{"CLAIM-T411-size", "Theorem 4.11: QAr translation size", QArTranslationSize},
	{"CLAIM-T52", "Theorem 5.2: TMNF transformation", TMNFTransform},
	{"CLAIM-C64", "Corollary 6.4: Elog⁻ wrapper evaluation", ElogEvalScaling},
	{"FIG-MSO-cost", "MSO compilation blow-up vs linear evaluation", MSOBlowup},
}

// All runs every experiment, or only the one with the given id when
// id is non-empty.
func All(cfg Config, id string) []Table {
	var out []Table
	for _, e := range catalog {
		if id != "" && e.ID != id {
			continue
		}
		t := e.Run(cfg)
		if t.ID != e.ID {
			panic(fmt.Sprintf("experiments: catalog id %q but table id %q", e.ID, t.ID))
		}
		out = append(out, t)
	}
	return out
}

// Index lists every experiment's id and title without running any
// measurements.
func Index() [][2]string {
	out := make([][2]string, len(catalog))
	for i, e := range catalog {
		out[i] = [2]string{e.ID, e.Title}
	}
	return out
}

// Theorem42Data: O(|P|·|dom|) combined complexity — data axis. The
// ns/node column must stay roughly flat.
func Theorem42Data(cfg Config) Table {
	sizes := []int{1000, 2000, 4000, 8000, 16000}
	if cfg.Quick {
		sizes = []int{500, 1000, 2000}
	}
	p := paperex.EvenAProgram("b")
	t := Table{
		ID:      "CLAIM-T42-data",
		Title:   "Theorem 4.2: monadic datalog, linear engine, time vs tree size",
		Headers: []string{"|dom|", "eval ms", "ns/node"},
		Notes:   "Program: Example 3.2 (even-aᵀ), Σ = {a, b}. Linearity shows as a flat ns/node column.",
	}
	rng := rand.New(rand.NewSource(42))
	for _, n := range sizes {
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: n, MaxChildren: 5})
		d := timeIt(func() {
			if _, err := eval.LinearTree(p, tr); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), ms(d), perUnit(d, n)})
	}
	return t
}

// programOfSize builds a monadic program with approximately the given
// number of rules: chained copies of structural rules.
func programOfSize(rules int) *datalog.Program {
	p := &datalog.Program{}
	V, At, R := datalog.V, datalog.At, datalog.R
	p.Add(R(At("p0", V("X")), At("leaf", V("X"))))
	i := 0
	for len(p.Rules) < rules {
		cur := fmt.Sprintf("p%d", i+1)
		prev := fmt.Sprintf("p%d", i)
		switch i % 3 {
		case 0:
			p.Add(R(At(cur, V("X")), At("firstchild", V("X"), V("Y")), At(prev, V("Y"))))
		case 1:
			p.Add(R(At(cur, V("X")), At("nextsibling", V("X"), V("Y")), At(prev, V("Y"))))
		case 2:
			p.Add(R(At(cur, V("X")), At(prev, V("X")), At("label_a", V("X"))))
		}
		i++
	}
	return p
}

// Theorem42Program: combined complexity — program axis.
func Theorem42Program(cfg Config) Table {
	sizes := []int{16, 32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{8, 16, 32}
	}
	n := 4000
	if cfg.Quick {
		n = 1000
	}
	rng := rand.New(rand.NewSource(43))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: n, MaxChildren: 5})
	t := Table{
		ID:      "CLAIM-T42-program",
		Title:   "Theorem 4.2: linear engine, time vs program size (fixed tree)",
		Headers: []string{"|P| rules", "eval ms", "µs/rule"},
		Notes:   fmt.Sprintf("Tree size fixed at %d nodes. Linearity in |P| shows as a flat µs/rule column.", n),
	}
	for _, rules := range sizes {
		p := programOfSize(rules)
		d := timeIt(func() {
			if _, err := eval.LinearTree(p, tr); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(len(p.Rules)), ms(d),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3/float64(len(p.Rules)))})
	}
	return t
}

// EnginesAblation compares the four engines on the same workload
// (the Proposition 3.4 vs Theorem 4.2 contrast).
func EnginesAblation(cfg Config) Table {
	sizes := []int{500, 1000, 2000}
	if cfg.Quick {
		sizes = []int{200, 400}
	}
	p := paperex.EvenAProgram("b")
	t := Table{
		ID:      "ABLATION-engines",
		Title:   "Engine ablation: Theorem 4.2 pipeline vs generic evaluation",
		Headers: []string{"|dom|", "linear ms", "LIT ms", "semi-naive ms", "naive ms"},
		Notes:   "Same program (Example 3.2) and trees across engines; the generic engines carry join and re-derivation overhead the connected-split + Horn pipeline avoids.",
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range sizes {
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: n, MaxChildren: 5})
		row := []string{fmt.Sprint(n)}
		for _, engine := range []eval.Engine{eval.EngineLinear, eval.EngineLIT, eval.EngineSemiNaive, eval.EngineNaive} {
			e := engine
			d := timeIt(func() {
				if _, err := eval.EvalOnTree(p, tr, e); err != nil {
					panic(err)
				}
			})
			row = append(row, ms(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// GroundLinear: Proposition 3.5 — ground programs in O(|P| + |σ|).
func GroundLinear(cfg Config) Table {
	sizes := []int{10000, 20000, 40000, 80000}
	if cfg.Quick {
		sizes = []int{5000, 10000}
	}
	t := Table{
		ID:      "CLAIM-GROUND",
		Title:   "Proposition 3.5: ground program evaluation, time vs program size",
		Headers: []string{"clauses", "eval ms", "ns/clause"},
		Notes:   "Ground implication chains p(i) ← p(i−1) solved by linear-time Horn inference (Dowling–Gallier / LTUR).",
	}
	for _, m := range sizes {
		p := &datalog.Program{}
		p.Add(datalog.R(datalog.At("p", datalog.C(0))))
		for i := 1; i < m; i++ {
			p.Add(datalog.R(datalog.At("p", datalog.C(i)), datalog.At("p", datalog.C(i-1))))
		}
		db := datalog.NewDatabase(m)
		d := timeIt(func() {
			if _, err := eval.GroundEval(p, db); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(m), ms(d), perUnit(d, m)})
	}
	return t
}

// GuardedScaling: Proposition 3.6 — O(|P|·|σ|) for guarded programs.
func GuardedScaling(cfg Config) Table {
	sizes := []int{10000, 20000, 40000}
	if cfg.Quick {
		sizes = []int{5000, 10000}
	}
	p := datalog.MustParseProgram(`
sel(X) :- e(X,Y), good(Y).
sel(Y) :- e(X,Y), sel(X).
pair(X,Y) :- e(X,Y), sel(X).
`)
	t := Table{
		ID:      "CLAIM-GUARD",
		Title:   "Proposition 3.6: guarded datalog, time vs database size",
		Headers: []string{"|σ| tuples", "eval ms", "ns/tuple"},
		Notes:   "Random sparse edge relation; every rule carries an extensional guard, grounded per guard tuple.",
	}
	for _, m := range sizes {
		rng := rand.New(rand.NewSource(45))
		db := datalog.NewDatabase(m)
		for i := 0; i < m; i++ {
			db.Add("e", rng.Intn(m), rng.Intn(m))
		}
		for i := 0; i < m/100+1; i++ {
			db.Add("good", rng.Intn(m))
		}
		sz := db.Size()
		d := timeIt(func() {
			if _, err := eval.GuardedEval(p, db); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(sz), ms(d), perUnit(d, sz)})
	}
	return t
}

// Example421Separation: the headline figure — direct query automaton
// runs take superpolynomially many steps while the Theorem 4.11
// datalog translation evaluates in linear time.
func Example421Separation(cfg Config) Table {
	t := Table{
		ID:      "FIG-EX421",
		Title:   "Example 4.21: QA direct execution vs datalog simulation (α = 1, β = 2)",
		Headers: []string{"depth", "n = |dom|", "QA steps", "QA ms", "datalog ms", "speed-up"},
		Notes: "Complete binary trees. QA steps follow steps(d) = β(2 + 2·steps(d−1)) = Θ(n·((n+1)/2)^α); " +
			"the datalog translation (program fixed per α) evaluates in O(|P|·n). " +
			"The shape matches the paper: the automaton is superpolynomial, the simulation linear, " +
			"with the crossover already at small depths.",
	}
	maxDepth := 9
	if cfg.Quick {
		maxDepth = 7
	}
	a := qa.Example421(1)
	prog := a.ToDatalog("query")
	for depth := 3; depth <= maxDepth; depth++ {
		tr := tree.CompleteBinary(depth, "a")
		steps := qa.Example421Steps(1, depth)
		dQA := timeIt(func() {
			if _, err := a.Run(tr, qa.RunOptions{}); err != nil {
				panic(err)
			}
		})
		dDL := timeIt(func() {
			if _, err := eval.LinearTree(prog, tr); err != nil {
				panic(err)
			}
		})
		speedup := float64(dQA.Nanoseconds()) / float64(dDL.Nanoseconds())
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(depth), fmt.Sprint(tr.Size()), fmt.Sprint(steps),
			ms(dQA), ms(dDL), fmt.Sprintf("%.2fx", speedup)})
	}
	return t
}

// QArTranslationSize: Theorem 4.11 — the translation is quadratic in
// the automaton.
func QArTranslationSize(cfg Config) Table {
	alphas := []int{1, 2, 3}
	if cfg.Quick {
		alphas = []int{1, 2}
	}
	t := Table{
		ID:      "CLAIM-T411-size",
		Title:   "Theorem 4.11: size and cost of the QAr → monadic datalog translation",
		Headers: []string{"α", "QA states", "datalog rules", "translate ms"},
		Notes:   "A_β family (β = 2^α, (β+1)² states). Rule count grows ~quadratically with the state count, matching the LOGSPACE reduction's output bound.",
	}
	for _, alpha := range alphas {
		a := qa.Example421(alpha)
		var prog *datalog.Program
		d := timeIt(func() { prog = a.ToDatalog("query") })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(alpha), fmt.Sprint(a.NumStates), fmt.Sprint(len(prog.Rules)), ms(d)})
	}
	return t
}

// TMNFTransform: Theorem 5.2 — near-linear translation into TMNF.
func TMNFTransform(cfg Config) Table {
	sizes := []int{50, 100, 200, 400}
	if cfg.Quick {
		sizes = []int{25, 50, 100}
	}
	t := Table{
		ID:      "CLAIM-T52",
		Title:   "Theorem 5.2: TMNF translation, time and output size vs input size",
		Headers: []string{"input rules", "output rules", "transform ms", "µs/input-rule"},
		Notes:   "Input rules use child atoms and multi-variable bodies; the output is pure TMNF over τ_ur.",
	}
	for _, m := range sizes {
		p := &datalog.Program{}
		V, At, R := datalog.V, datalog.At, datalog.R
		for i := 0; i < m; i++ {
			cur := fmt.Sprintf("q%d", i)
			prev := "leaf"
			if i > 0 {
				prev = fmt.Sprintf("q%d", i-1)
			}
			p.Add(R(At(cur, V("X")),
				At("child", V("X"), V("Y")), At(prev, V("Y")),
				At("child", V("X"), V("Z")), At("label_a", V("Z"))))
		}
		var out *datalog.Program
		d := timeIt(func() {
			var err error
			out, err = tmnf.Transform(p)
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(m), fmt.Sprint(len(out.Rules)), ms(d),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3/float64(m))})
	}
	return t
}

// ElogEvalScaling: Corollary 6.4 — Elog⁻ wrappers evaluate in
// O(|P|·|dom|) on synthetic product-listing pages.
func ElogEvalScaling(cfg Config) Table {
	sizes := []int{200, 400, 800, 1600}
	if cfg.Quick {
		sizes = []int{100, 200, 400}
	}
	prog := elog.MustParseProgram(`
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
name(x)   :- item(x0), subelem("td.#text", x0, x), firstsibling(x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
status(x) :- item(x0), subelem("td.em.#text", x0, x).
`)
	compiled, err := prog.CompileLinear()
	if err != nil {
		panic(err)
	}
	t := Table{
		ID:      "CLAIM-C64",
		Title:   "Corollary 6.4: Elog⁻ wrapper evaluation on product listings",
		Headers: []string{"rows", "nodes", "eval ms", "ns/node"},
		Notes: fmt.Sprintf("Wrapper compiled once (Elog⁻ → datalog → TMNF, %d rules) and evaluated with the linear engine.",
			len(compiled.Rules)),
	}
	for _, rows := range sizes {
		rng := rand.New(rand.NewSource(46))
		doc := html.Parse(html.ProductListing(rng, rows))
		n := doc.Size()
		d := timeIt(func() {
			if _, err := eval.LinearTree(compiled, doc); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{fmt.Sprint(rows), fmt.Sprint(n), ms(d), perUnit(d, n)})
	}
	return t
}

// MSOBlowup: the nonelementary cost of MSO-to-automaton compilation
// vs the stable cost of evaluating the compiled query.
func MSOBlowup(cfg Config) Table {
	t := Table{
		ID:      "FIG-MSO-cost",
		Title:   "MSO compilation blow-up vs linear evaluation (Section 1/4.2 discussion)",
		Headers: []string{"alternations", "DTA states", "transitions", "compile ms", "eval ns/node"},
		Notes: "Queries alternate ∀/∃ over children around a leaf-or-label core. Compilation cost " +
			"(determinizations) grows steeply with alternation depth — the paper's nonelementary " +
			"worst case — while evaluating the compiled automaton stays linear per node.",
	}
	depth := 4
	if cfg.Quick {
		depth = 3
	}
	rng := rand.New(rand.NewSource(47))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 3000, MaxChildren: 4})
	for k := 0; k <= depth; k++ {
		src := alternationQuery(k)
		f, err := mso.Parse(src)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", src, err))
		}
		var q *mso.UnaryQuery
		d := timeIt(func() {
			q, err = mso.CompileQuery(f)
			if err != nil {
				panic(err)
			}
		})
		dEval := timeIt(func() { q.Select(tr) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprint(q.C.DTA.NumStates), fmt.Sprint(q.C.DTA.NumTransitions()),
			ms(d), perUnit(dEval, tr.Size())})
	}
	return t
}

// alternationQuery builds a unary query with k quantifier
// alternations over the child relation, free variable x.
func alternationQuery(k int) string {
	var build func(level int, cur string) string
	build = func(level int, cur string) string {
		if level == 0 {
			return fmt.Sprintf("(leaf(%s) | label_a(%s))", cur, cur)
		}
		next := fmt.Sprintf("y%d", level)
		inner := build(level-1, next)
		if level%2 == 0 {
			return fmt.Sprintf("forall %s (child(%s,%s) -> %s)", next, cur, next, inner)
		}
		return fmt.Sprintf("exists %s (child(%s,%s) & %s)", next, cur, next, inner)
	}
	return build(k, "x")
}
