package bench

import (
	"bytes"
	"strings"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

func TestRunEpsilon(t *testing.T) {
	var progress bytes.Buffer
	rows, err := EpsilonMode([]float64{0.1, 0}).Run(t.Context(), RunConfig{
		Specs:    []Spec{{Shape: workload.Chain, Params: 1, Tables: 5}},
		Points:   32,
		Seed:     3,
		Progress: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	exact, approx := rows[0], rows[1]
	if exact.Case != "epsilon/chain-1p/tables=5/eps=0" || approx.Case != "epsilon/chain-1p/tables=5/eps=0.1" {
		t.Fatalf("rows %q/%q, want ascending eps=0 and eps=0.1", exact.Case, approx.Case)
	}
	if exact.Epsilon != 0 || approx.Epsilon != 0.1 {
		t.Fatalf("epsilons %v/%v, want 0/0.1", exact.Epsilon, approx.Epsilon)
	}
	// The exact row certifies against itself: regret exactly 1, no
	// reductions — a self-check of the certification path.
	if exact.MaxRegret != 1 {
		t.Errorf("exact self-regret = %v, want exactly 1", exact.MaxRegret)
	}
	if exact.PlanReduction != 0 || exact.LPReduction != 0 {
		t.Errorf("exact reductions %v/%v, want 0/0", exact.PlanReduction, exact.LPReduction)
	}
	// The ε tier honors the contract. (Set shrinkage is the point of
	// the knob but not a per-query invariant — the asymmetric prune
	// can keep a different, occasionally larger, representative set on
	// small queries — so only the contract is asserted.)
	if bound := (1 + approx.Epsilon) * (1 + 1e-9); approx.MaxRegret > bound {
		t.Errorf("certified regret %v exceeds bound %v", approx.MaxRegret, bound)
	}
	// The reduction is computed from the served candidate counts, so it
	// matching the optimizer's final plan counts shows the store round
	// trip served every plan.
	if approx.PlanReduction != 1-float64(approx.FinalPlans)/float64(exact.FinalPlans) {
		t.Errorf("plan reduction %v does not match final plans %d/%d",
			approx.PlanReduction, approx.FinalPlans, exact.FinalPlans)
	}
	for _, c := range rows {
		if c.CreatedPlans == 0 || c.SolvedLPs == 0 || c.NsPerOp <= 0 || c.Repetitions != 32 || c.Workers != 1 {
			t.Errorf("%s incomplete: %+v", c.Case, c)
		}
	}
	if n := strings.Count(progress.String(), "regret="); n != 2 {
		t.Errorf("progress has %d rows, want 2:\n%s", n, progress.String())
	}
}

// TestCertifyRegretRejectsEmptyExactFrontier: a point where no exact
// plan's relevance region reaches has no reference answer, and the
// certificate must fail there rather than skip it.
func TestCertifyRegretRejectsEmptyExactFrontier(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	space := geometry.Interval(0, 1)
	cost := pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 2))
	rr := region.New(ctx, space, region.DefaultOptions())
	rr.Subtract(ctx, geometry.Interval(0.5, 1))
	exact := []selection.Candidate{{Plan: plan.Scan(0, "a"), Cost: cost, RR: rr}}
	approx := []selection.Candidate{{Plan: plan.Scan(0, "a"), Cost: cost}}
	if r, err := certifyRegret(exact, approx, []geometry.Vector{{0.25}}); err != nil || r != 1 {
		t.Fatalf("covered point: regret %v, err %v; want 1, nil", r, err)
	}
	_, err := certifyRegret(exact, approx, []geometry.Vector{{0.25}, {0.75}})
	if err == nil || !strings.Contains(err.Error(), "exact frontier empty") {
		t.Fatalf("err = %v, want an empty exact frontier error", err)
	}
}
