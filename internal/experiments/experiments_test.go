package experiments

import (
	"strings"
	"testing"
)

// TestTablesWellFormed smoke-runs a representative subset of the
// experiment harness in quick mode and checks the tables are sane.
func TestTablesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing harness")
	}
	cfg := Config{Quick: true}
	tables := []Table{
		Theorem42Data(cfg),
		GroundLinear(cfg),
		QArTranslationSize(cfg),
	}
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" {
			t.Errorf("table missing id/title: %+v", tab)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.ID)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Headers) {
				t.Errorf("%s: row width %d, headers %d", tab.ID, len(r), len(tab.Headers))
			}
		}
		md := tab.Markdown()
		if !strings.Contains(md, tab.ID) || !strings.Contains(md, "|") {
			t.Errorf("%s: malformed markdown", tab.ID)
		}
	}
}

func TestAlternationQueryShape(t *testing.T) {
	q0 := alternationQuery(0)
	if !strings.Contains(q0, "leaf(x)") {
		t.Errorf("q0 = %s", q0)
	}
	q2 := alternationQuery(2)
	if !strings.Contains(q2, "forall") || !strings.Contains(q2, "exists") {
		t.Errorf("q2 = %s", q2)
	}
}
