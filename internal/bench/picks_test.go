package bench

import (
	"strings"
	"testing"

	"mpq/internal/workload"
)

// TestRunPicks: the picks mode emits a linear and an index row with the
// prepare's counts, which equal the exact epsilon row of the same spec
// and seed — both modes prepare through the same tier path.
func TestRunPicks(t *testing.T) {
	cfg := RunConfig{
		Specs:  []Spec{{Shape: workload.Chain, Params: 1, Tables: 5}},
		Points: 32,
		Seed:   3,
	}
	rows, err := PicksMode().Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Case != "picks/chain-1p/tables=5/linear" || rows[1].Case != "picks/chain-1p/tables=5/index" {
		t.Fatalf("rows = %+v, want one linear and one index row", rows)
	}
	exact, err := EpsilonMode([]float64{0}).Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(c JSONCase) [4]int64 {
		return [4]int64{int64(c.CreatedPlans), c.SolvedLPs, int64(c.FinalPlans), int64(c.Workers)}
	}
	for _, c := range rows {
		if counts(c) != counts(exact[0]) || c.CreatedPlans == 0 {
			t.Errorf("%s counts %v, want the exact epsilon row's %v", c.Case, counts(c), counts(exact[0]))
		}
		if c.NsPerOp <= 0 || c.TimeMs <= 0 || c.Repetitions != 32 || !strings.HasPrefix(c.Case, "picks/") {
			t.Errorf("%s incomplete: %+v", c.Case, c)
		}
	}
}
