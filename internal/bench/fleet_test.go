package bench

import (
	"bytes"
	"strings"
	"testing"

	"mpq/internal/workload"
)

func TestRunFleet(t *testing.T) {
	var progress bytes.Buffer
	rows, err := FleetMode(2).Run(t.Context(), RunConfig{
		Specs:    []Spec{{Shape: workload.Star, Params: 1, Tables: 4}},
		Points:   32,
		Seed:     1,
		Progress: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	c := rows[0]
	if c.Case != "fleet/star-1p/tables=4/servers=2" {
		t.Errorf("case name %q", c.Case)
	}
	if c.SharedHitRate != 0.5 || !strings.Contains(progress.String(), "(1/2 shared)") {
		t.Errorf("hit rate %.3f (%s), want 1 of 2 prepares shared", c.SharedHitRate, progress.String())
	}
	if c.CreatedPlans == 0 || c.SolvedLPs == 0 {
		t.Errorf("compute stats empty: %+v", c)
	}
	if c.NsPerOp <= 0 || c.NumCPU <= 0 || c.Repetitions != 2 {
		t.Errorf("row incomplete: pick=%dns cpus=%d servers=%d", c.NsPerOp, c.NumCPU, c.Repetitions)
	}
}
