package eval

import (
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

func TestResultMemoBound(t *testing.T) {
	c := NewTreeCache(0)
	c.MaxResults = 4
	tr := tree.MustParse("a(b)")
	db := datalog.NewDatabase(2)
	for i := 0; i < 10; i++ {
		c.SetResult(tr, i, db)
	}
	s := c.Stats()
	if s.Results != 4 {
		t.Errorf("results = %d, want 4", s.Results)
	}
	if s.ResultEvictions != 6 {
		t.Errorf("evictions = %d, want 6", s.ResultEvictions)
	}
	// Overwriting a surviving key evicts nothing.
	var kept any
	for i := 0; i < 10; i++ {
		if _, ok := c.Result(tr, i); ok {
			kept = i
			break
		}
	}
	c.SetResult(tr, kept, db)
	if got := c.Stats(); got.ResultEvictions != 6 || got.Results != 4 {
		t.Errorf("after overwrite: %+v", got)
	}
	// A second tree gets its own budget.
	tr2 := tree.MustParse("c")
	c.SetResult(tr2, "q", db)
	if got := c.Stats(); got.Trees != 2 || got.Results != 5 {
		t.Errorf("two trees: %+v", got)
	}
	// Forget drops the entry's results with it.
	c.Forget(tr)
	if got := c.Stats(); got.Trees != 1 || got.Results != 1 {
		t.Errorf("after forget: %+v", got)
	}
}

func TestResultMemoUnbounded(t *testing.T) {
	c := NewTreeCache(0)
	c.MaxResults = 0 // explicit opt-out
	tr := tree.MustParse("a")
	db := datalog.NewDatabase(1)
	for i := 0; i < 2*DefaultMaxResults; i++ {
		c.SetResult(tr, i, db)
	}
	if s := c.Stats(); s.Results != 2*DefaultMaxResults || s.ResultEvictions != 0 {
		t.Errorf("unbounded memo: %+v", s)
	}
}

func TestDefaultMaxResults(t *testing.T) {
	c := NewTreeCache(3)
	if c.MaxResults != DefaultMaxResults {
		t.Errorf("MaxResults = %d, want %d", c.MaxResults, DefaultMaxResults)
	}
	tr := tree.MustParse("a")
	db := datalog.NewDatabase(1)
	for i := 0; i < DefaultMaxResults+5; i++ {
		c.SetResult(tr, i, db)
	}
	if s := c.Stats(); s.Results != DefaultMaxResults {
		t.Errorf("results = %d, want %d", s.Results, DefaultMaxResults)
	}
	// Stats also reflects result-lookup traffic: a surviving key hits,
	// an evicted or unknown one misses.
	hits := int64(0)
	for i := 0; i < DefaultMaxResults+5; i++ {
		if _, ok := c.Result(tr, i); ok {
			hits++
		}
	}
	if s := c.Stats(); hits != DefaultMaxResults || s.Hits != hits || s.Misses != 5 {
		t.Errorf("traffic: %d hits, stats %+v", hits, s)
	}
}

// TestSharedDBConcurrentHas pins the read-only contract of shared
// databases: concurrent Has on one TreeDB must be race-free even
// though the membership set is built lazily.
func TestSharedDBConcurrentHas(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	db := TreeDB(tr, WithChild(), WithDom())
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				db.Has(PredChild, 0, 1)
				db.Has(PredDom, i%6)
				db.Has(PredLeaf, i%6)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// TestTreeDBNoPhantomLabels: stream-parsed documents pre-intern
// policy tag symbols; TreeDB must not materialize empty label_*
// relations for labels the document never uses.
func TestTreeDBNoPhantomLabels(t *testing.T) {
	tr := tree.MustParse("a(b)")
	db := TreeDB(tr)
	for _, pred := range db.Preds() {
		switch pred {
		case "label_a", "label_b", PredRoot, PredLeaf, PredLastSibling, PredFirstChild, PredNextSibling:
		default:
			t.Errorf("unexpected relation %q", pred)
		}
	}
}

// TestResultMemoGenerations: a tree keeps one entry across mutations.
// A lookup after a mutation misses, and the next SetResult replaces
// the superseded results.
func TestResultMemoGenerations(t *testing.T) {
	c := NewTreeCache(0)
	tr := tree.MustParse("a(b)")
	old, cur := datalog.NewDatabase(2), datalog.NewDatabase(2)
	c.SetResult(tr, "q", old)
	c.SetResult(tr, "p", old)
	tr.Reindex()
	if _, ok := c.Result(tr, "q"); ok || c.Contains(tr) {
		t.Fatal("a mutated tree is served its old results")
	}
	c.SetResult(tr, "q", cur)
	if got := c.Stats(); got.Trees != 1 || got.Results != 1 {
		t.Errorf("after a new generation's result: %+v, want 1 tree and 1 result", got)
	}
	if db, ok := c.Result(tr, "q"); !ok || db != cur {
		t.Error("the new generation's result is not served")
	}
}
