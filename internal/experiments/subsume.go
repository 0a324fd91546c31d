package experiments

import (
	"fmt"
	"math/rand"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/opt"
)

// This file measures EXT-SUBSUME: what the containment-aware compile
// pipeline (shared-structure CSE + registry-wide wrapper subsumption)
// buys over the plain fused baseline when the fleet contains
// near-duplicate wrappers — syntactically different programs the
// checker proves semantically equivalent, so all but one
// representative per class cost zero evaluation per document.
// cmd/benchtables -subsume serializes the points as BENCH_subsume.json.

// SubsumePoint is one fleet size's measurement over the benchmark
// document set.
type SubsumePoint struct {
	// Wrappers is the fleet size N.
	Wrappers int `json:"wrappers"`
	// Evaluated is how many wrappers still own rules in the
	// containment-aware fused program; Subsumed = N − Evaluated are
	// answered purely by projection.
	Evaluated int `json:"evaluated"`
	Subsumed  int `json:"subsumed"`
	// Checked counts visible predicates the checker fingerprinted;
	// Unknown counts those it declined (fell back to evaluation).
	Checked int `json:"checked"`
	Unknown int `json:"unknown"`
	// RulesBaseline / RulesSubsume compare the fused program sizes:
	// apex-rename + dedup only (the PR 5 pipeline) vs the full
	// CSE + subsumption pipeline.
	RulesBaseline int `json:"rules_baseline"`
	RulesSubsume  int `json:"rules_subsume"`
	// CheckNs is the one-time compile cost of the containment checker
	// for this fleet (amortized over every subsequent document).
	CheckNs int64 `json:"check_ns"`
	// BaselineNs / SubsumeNs are one full fused pass over the document
	// set (grounding + solve for the whole fleet) per pipeline, in
	// nanoseconds; Speedup is BaselineNs / SubsumeNs.
	BaselineNs float64 `json:"baseline_ns"`
	SubsumeNs  float64 `json:"subsume_ns"`
	Speedup    float64 `json:"speedup"`
}

// subsumeWrapper builds wrapper variant v of base shape s: variant 0
// is the base program itself; higher variants pad the body with a dom
// atom and duplicated base atoms whose non-head variables are renamed
// fresh — semantically equivalent by construction (a conjunct implied
// by an existing one changes nothing), syntactically distinct enough
// that α-dedup cannot merge them. Only the containment checker's
// unfold→minimize normal form collapses the class.
func subsumeWrapper(s, v int) string {
	bases := [][]string{
		{"firstchild(X,Y)", "label_td(Y)"},
		{"label_td(X)", "firstchild(X,Y)", "label_b(Y)"},
		{"label_tr(X)", "firstchild(X,Y)", "nextsibling(Y,Z)", "label_td(Z)"},
		{"nextsibling(X,Y)", "label_td(Y)", "firstchild(Y,Z)"},
	}
	base := bases[s%len(bases)]
	body := append([]string{}, base...)
	// Encode the variant index as per-atom duplicate counts (digits of
	// v in base 6): every v yields an α-distinct body, yet bodies stay
	// small enough for the checker's atom budget at any fleet size.
	for j := range base {
		copies := v % 6
		v /= 6
		for m := 0; m < copies; m++ {
			dup := ""
			for _, r := range base[j] {
				if r == 'Y' || r == 'Z' {
					dup += fmt.Sprintf("%c%d%d", r, j, m)
				} else {
					dup += string(r)
				}
			}
			body = append(body, dup)
		}
	}
	if len(body) > len(base) {
		body = append(body, "dom(X)")
	}
	src := "q(X) :- " + body[0]
	for _, a := range body[1:] {
		src += ", " + a
	}
	return src + ". ?- q."
}

// subsumeFleet compiles the N-wrapper fleet into opt.FuseMember form.
// Shape rotates fastest so every fleet size exercises all base shapes;
// the variant index grows with N, deepening the padding.
func subsumeFleet(n int) []opt.FuseMember {
	members := make([]opt.FuseMember, n)
	for i := 0; i < n; i++ {
		p := datalog.MustParseProgram(subsumeWrapper(i%4, i/4))
		members[i] = opt.FuseMember{
			Prefix:  fmt.Sprintf("s%d__", i),
			Program: p,
			Visible: []string{p.Query},
		}
	}
	return members
}

// subsumePlan prepares a fused linear plan for the fleet under the
// given pass selection, resolving each member's visible predicate
// through the alias map.
func subsumePlan(members []opt.FuseMember, o opt.FuseOptions) (*eval.FusedPlan, opt.FuseReport) {
	fused, aliases, rep := opt.FuseWith(members, o)
	fms := make([]eval.FusedMember, len(members))
	for i, m := range members {
		pred := m.Prefix + m.Program.Query
		if tgt, ok := aliases[pred]; ok {
			pred = tgt
		}
		fms[i] = eval.FusedMember{
			Name:    fmt.Sprintf("w%d", i),
			Project: map[string]string{m.Program.Query: pred},
		}
	}
	plan, err := eval.NewFusedPlan(fused, fms)
	if err != nil {
		panic(fmt.Sprintf("subsume plan: %v", err))
	}
	return plan, rep
}

// SubsumeData measures the containment-aware pipeline vs the plain
// fused baseline for fleets of N ∈ {8, 32, 128} near-duplicate
// wrappers over the benchmark document set.
func SubsumeData(cfg Config) []SubsumePoint {
	rows := 150
	docsN := 3
	sizes := []int{8, 32, 128}
	if cfg.Quick {
		rows, docsN = 50, 2
		sizes = []int{4, 8, 16}
	}
	rng := rand.New(rand.NewSource(49))
	navs := make([]*eval.Nav, docsN)
	for i := range navs {
		navs[i] = eval.NewNav(html.Parse(html.ProductListing(rng, rows)))
	}

	var out []SubsumePoint
	for _, n := range sizes {
		members := subsumeFleet(n)
		base, _ := subsumePlan(members, opt.FuseOptions{})
		full, rep := subsumePlan(members, opt.DefaultFuseOptions)
		// Semantics guard: both pipelines must agree on every member's
		// visible relation on every document before timing means
		// anything.
		for _, nav := range navs {
			bdb, err := base.RunFull(nav, nil)
			if err != nil {
				panic(err)
			}
			fdb, err := full.RunFull(nav, nil)
			if err != nil {
				panic(err)
			}
			bviews, fviews := base.Split(bdb), full.Split(fdb)
			for i := range members {
				q := members[i].Program.Query
				b, f := bviews[i].UnarySet(q), fviews[i].UnarySet(q)
				if fmt.Sprint(b) != fmt.Sprint(f) {
					panic(fmt.Sprintf("subsume w%d diverges: baseline %v vs subsume %v", i, b, f))
				}
			}
		}
		evaluated := n - ownerlessMembers(full.Plan().Program(), members)
		pt := SubsumePoint{
			Wrappers:      n,
			Evaluated:     evaluated,
			Subsumed:      n - evaluated,
			Checked:       rep.SubsumeChecked,
			Unknown:       rep.SubsumeUnknown,
			RulesBaseline: len(base.Plan().Program().Rules),
			RulesSubsume:  len(full.Plan().Program().Rules),
			CheckNs:       rep.CheckNs,
		}
		pt.BaselineNs = float64(timeIt(func() {
			for _, nav := range navs {
				if _, err := base.RunFull(nav, nil); err != nil {
					panic(err)
				}
			}
		}).Nanoseconds())
		pt.SubsumeNs = float64(timeIt(func() {
			for _, nav := range navs {
				if _, err := full.RunFull(nav, nil); err != nil {
					panic(err)
				}
			}
		}).Nanoseconds())
		pt.Speedup = pt.BaselineNs / pt.SubsumeNs
		out = append(out, pt)
	}
	return out
}

// ownerlessMembers counts members none of whose apex-prefixed rules
// survive in the fused program — the subsumed members, served purely
// by projection.
func ownerlessMembers(fused *datalog.Program, members []opt.FuseMember) int {
	owned := make(map[string]bool, len(members))
	for _, r := range fused.Rules {
		for _, m := range members {
			if len(r.Head.Pred) >= len(m.Prefix) && r.Head.Pred[:len(m.Prefix)] == m.Prefix {
				owned[m.Prefix] = true
				break
			}
		}
	}
	n := 0
	for _, m := range members {
		if !owned[m.Prefix] {
			n++
		}
	}
	return n
}

// Subsume renders SubsumeData as an experiment table (EXT-SUBSUME).
func Subsume(cfg Config) Table {
	t := Table{
		ID:    "EXT-SUBSUME",
		Title: "Wrapper subsumption: containment-aware pipeline vs plain fused baseline",
		Headers: []string{"wrappers", "evaluated", "subsumed", "rules base", "rules subsume",
			"check ms", "base ms", "subsume ms", "speedup"},
		Notes: "Fleet of near-duplicate datalog wrappers (4 base shapes; variants pad each body with dom atoms " +
			"and implied duplicated fragments, defeating α-dedup and CSE). The containment checker unfolds each " +
			"visible predicate to its minimized UCQ normal form and merges proven-equal classes, so only one " +
			"representative per shape is evaluated per document; the rest answer by projection. " +
			"check ms is the one-time compile cost; base/subsume ms are one full fused pass over the document set. " +
			"cmd/benchtables -subsume emits these rows as BENCH_subsume.json.",
	}
	for _, pt := range SubsumeData(cfg) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.Wrappers), fmt.Sprint(pt.Evaluated), fmt.Sprint(pt.Subsumed),
			fmt.Sprint(pt.RulesBaseline), fmt.Sprint(pt.RulesSubsume),
			fmt.Sprintf("%.3f", float64(pt.CheckNs)/1e6),
			fmt.Sprintf("%.3f", pt.BaselineNs/1e6), fmt.Sprintf("%.3f", pt.SubsumeNs/1e6),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return t
}
