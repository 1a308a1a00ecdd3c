package core

import (
	"math"
	"slices"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/pwl"
)

// TestPruneKeepsNewcomerBeatenOnlyBetweenSamples: an old plan that is
// at most the newcomer at every screening sample (0, 0.5 and 1) but
// costs more on a bump between them does not dominate the newcomer on
// the whole space, so the sample screen alone must not drop it.
func TestPruneKeepsNewcomerBeatenOnlyBetweenSamples(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	space := geometry.Interval(0, 1)
	bump := pwl.NewFunction(
		pwl.Piece{Region: geometry.Interval(0, 0.2), W: geometry.Vector{0}, B: 0},
		pwl.Piece{Region: geometry.Interval(0.2, 0.25), W: geometry.Vector{40}, B: -8},
		pwl.Piece{Region: geometry.Interval(0.25, 0.3), W: geometry.Vector{-40}, B: 12},
		pwl.Piece{Region: geometry.Interval(0.3, 1), W: geometry.Vector{0}, B: 0},
	)
	old := pwl.NewMulti(bump, pwl.Constant(space, 1))
	newcomer := pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 1))

	o := &optimizer{
		model: &StaticModel{ParamSpace: space, Metrics: []string{"t", "f"}},
		ctx:   ctx,
		opts:  DefaultOptions(),
	}
	o.samples = screenSamples(ctx, space)
	w := &worker{o: o, solver: ctx, algebra: NewPWLAlgebra(ctx, 2)}
	cur := w.pruneInsert(nil, w.newCandidate(plan.Scan(0, "old"), old))
	nc := w.newCandidate(plan.Scan(0, "new"), newcomer)
	if len(o.samples) != 3 || !atMostAtSamples(cur[0].samples, nc.samples) {
		t.Fatalf("old plan must be at most the newcomer at all %d screening samples", len(o.samples))
	}
	cur = w.pruneInsert(cur, nc)
	if len(cur) != 2 {
		t.Fatalf("kept %d plans, want both: the old plan costs more than the newcomer at x=0.25", len(cur))
	}
	if x := (geometry.Vector{0.25}); !cur[1].RR.Contains(x, 1e-9) {
		t.Errorf("newcomer's relevance region does not contain %v", x)
	}
}

// TestPresortOrder: candidates sort by key, NaN keys last, ties in
// canonical order; a plan at most another at every sample has at most
// its key.
func TestPresortOrder(t *testing.T) {
	nan := math.NaN()
	cands := []candidate{{key: nan, cost: 0}, {key: 3, cost: 1}, {key: 1, cost: 2}, {key: 3, cost: 3}, {key: nan, cost: 4}}
	slices.SortStableFunc(cands, presortCmp)
	var got []Cost
	for _, c := range cands {
		got = append(got, c.cost)
	}
	if want := []Cost{2, 1, 3, 0, 4}; !slices.Equal(got, want) {
		t.Errorf("presort order %v, want %v", got, want)
	}

	space := geometry.Interval(0, 1)
	ctx := geometry.NewSolver(geometry.Config{})
	o := &optimizer{model: &StaticModel{ParamSpace: space}, ctx: ctx}
	o.samples = screenSamples(ctx, space)
	w := &worker{o: o, solver: ctx, algebra: NewPWLAlgebra(ctx, 2)}
	lo := w.newCandidate(nil, pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 0), pwl.Constant(space, 0)))
	hi := w.newCandidate(nil, pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 0.5), pwl.Constant(space, 2)))
	if !atMostAtSamples(lo.samples, hi.samples) || !(lo.key < hi.key) || math.IsNaN(lo.key) {
		t.Errorf("keys %v, %v: a plan at most another at every sample, with zero costs, must sort first", lo.key, hi.key)
	}
}
