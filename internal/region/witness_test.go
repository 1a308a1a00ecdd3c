package region

import (
	"testing"

	"mpq/internal/geometry"
)

// TestWitnessRegeneration: after a geometric non-emptiness verdict, a
// witness point is cached so that further emptiness checks on an
// unchanged region cost no LPs.
func TestWitnessRegeneration(t *testing.T) {
	for _, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
		ctx := geometry.NewSolver(geometry.Config{})
		r := New(ctx, geometry.UnitBox(1), Options{Strategy: strat})
		// Without relevance points, the first check is geometric.
		r.Subtract(ctx, geometry.Interval(0, 0.6))
		if r.IsEmpty(ctx) {
			t.Fatalf("%v: not empty", strat)
		}
		lps := ctx.Stats.LPs
		if r.IsEmpty(ctx) {
			t.Fatalf("%v: became empty", strat)
		}
		if ctx.Stats.LPs != lps {
			t.Errorf("%v: repeated IsEmpty solved %d LPs, want 0 (witness cached)", strat, ctx.Stats.LPs-lps)
		}
		// A cutout covering the witness forces a new geometric check,
		// which must still report non-empty (gap at (0.6, 0.7)).
		r.Subtract(ctx, geometry.Interval(0.7, 1))
		if r.IsEmpty(ctx) {
			t.Fatalf("%v: gap (0.6,0.7) lost", strat)
		}
		// Finally cover everything.
		r.Subtract(ctx, geometry.Interval(0.55, 0.75))
		if !r.IsEmpty(ctx) {
			t.Errorf("%v: fully covered region not empty", strat)
		}
	}
}

// TestWitnessInsideRegion: regenerated witnesses must lie inside the
// region (strictly outside all cutouts).
func TestWitnessInsideRegion(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	r := New(ctx, geometry.UnitBox(2), Options{Strategy: StrategyCoverDiff})
	r.Subtract(ctx,
		geometry.Box(geometry.Vector{0, 0}, geometry.Vector{1, 0.5}),
		geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.5, 1}),
	)
	if r.IsEmpty(ctx) {
		t.Fatal("L-shaped cover should leave the corner")
	}
	w, ok := r.Witness(ctx)
	if !ok {
		t.Fatal("no witness")
	}
	if !r.Contains(w, 1e-9) {
		t.Errorf("witness %v outside region", w)
	}
	if w[0] < 0.5 || w[1] < 0.5 {
		t.Errorf("witness %v not in the uncovered corner", w)
	}
}
