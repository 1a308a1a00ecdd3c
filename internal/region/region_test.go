package region

import (
	"math/rand"
	"testing"

	"mpq/internal/geometry"
)

func noRefinements(strategy EmptinessStrategy) Options {
	return Options{Strategy: strategy}
}

func TestNewRegionNotEmpty(t *testing.T) {
	ctx := geometry.NewContext()
	for _, opts := range []Options{DefaultOptions(), noRefinements(StrategyBemporad), noRefinements(StrategyCoverDiff)} {
		r := New(ctx, geometry.UnitBox(2), opts)
		if r.IsEmpty(ctx) {
			t.Errorf("fresh region empty with opts %+v", opts)
		}
	}
}

func TestSubtractFigure7(t *testing.T) {
	// Figure 7 of the paper: plan 2's RR is [0,1]; after pruning with
	// plan 1 it is reduced by [0, 0.25], leaving [0.25, 1].
	ctx := geometry.NewContext()
	r := New(ctx, geometry.Interval(0, 1), DefaultOptions())
	r.Subtract(ctx, geometry.Interval(0, 0.25))
	if r.IsEmpty(ctx) {
		t.Fatal("region empty after one cutout")
	}
	if r.Contains(geometry.Vector{0.1}, 1e-9) {
		t.Error("0.1 should be cut out")
	}
	if !r.Contains(geometry.Vector{0.5}, 1e-9) {
		t.Error("0.5 should remain relevant")
	}
	pieces := r.Pieces(ctx)
	if len(pieces) != 1 {
		t.Fatalf("got %d pieces, want 1", len(pieces))
	}
	lo, hi, ok := ctx.Vertices1D(pieces[0])
	if !ok || lo < 0.25-1e-6 || lo > 0.25+1e-6 || hi < 1-1e-6 {
		t.Errorf("remaining region = [%v,%v], want [0.25,1]", lo, hi)
	}
}

func TestIsEmptyFullCoverBothStrategies(t *testing.T) {
	for _, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
		ctx := geometry.NewContext()
		r := New(ctx, geometry.Interval(0, 1), noRefinements(strat))
		r.Subtract(ctx, geometry.Interval(0, 0.6))
		if r.IsEmpty(ctx) {
			t.Errorf("%v: region empty with partial cover", strat)
		}
		r.Subtract(ctx, geometry.Interval(0.5, 1))
		if !r.IsEmpty(ctx) {
			t.Errorf("%v: region not empty after full cover", strat)
		}
	}
}

func TestIsEmptyNonConvexCover(t *testing.T) {
	// Cover the unit square by two overlapping rectangles whose union IS
	// the square (convex), and by an L-shape that does not cover.
	for _, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
		ctx := geometry.NewContext()
		r := New(ctx, geometry.UnitBox(2), noRefinements(strat))
		r.Subtract(ctx,
			geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.7, 1}),
			geometry.Box(geometry.Vector{0.5, 0}, geometry.Vector{1, 1}))
		if !r.IsEmpty(ctx) {
			t.Errorf("%v: two covering rectangles should empty the region", strat)
		}

		r2 := New(ctx, geometry.UnitBox(2), noRefinements(strat))
		r2.Subtract(ctx,
			geometry.Box(geometry.Vector{0, 0}, geometry.Vector{1, 0.5}),
			geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.5, 1}))
		if r2.IsEmpty(ctx) {
			t.Errorf("%v: L-shaped cover should leave the region non-empty", strat)
		}
		if !r2.Contains(geometry.Vector{0.9, 0.9}, 1e-9) {
			t.Errorf("%v: (0.9,0.9) should remain relevant", strat)
		}
	}
}

// TestIsEmptyNonConvexUnionCoveringSpace: one dominance region that
// covers the whole space, split at a piece boundary whose halves reach
// past the space to different heights, is a non-convex union that
// still covers the space. Theorem 5's convexity test is only a
// shortcut: both strategies must report the region empty.
func TestIsEmptyNonConvexUnionCoveringSpace(t *testing.T) {
	for _, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
		ctx := geometry.NewContext()
		left := geometry.Box(geometry.Vector{-1, -1}, geometry.Vector{0.5, 1.5})
		right := geometry.Box(geometry.Vector{0.5, -1}, geometry.Vector{2, 1.2})
		if _, convex := ctx.UnionConvex([]*geometry.Polytope{left, right}); convex {
			t.Fatal("test setup: the cutout union must be non-convex")
		}
		r := New(ctx, geometry.UnitBox(2), noRefinements(strat))
		r.Subtract(ctx, left, right)
		if !r.IsEmpty(ctx) {
			t.Errorf("%v: a non-convex union covering the space must empty the region", strat)
		}
	}
}

// TestSpaceCutoutEmptiesWithoutLP: a cutout that is the space itself
// (pwl.Dom's whole-space dominance) empties the region, relevance
// points and earlier cutouts included, without solving an LP.
func TestSpaceCutoutEmptiesWithoutLP(t *testing.T) {
	for _, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
		ctx := geometry.NewContext()
		space := geometry.UnitBox(2)
		r := New(ctx, space, Options{Strategy: strat, RelevancePoints: 16, EliminateRedundantCutouts: true})
		r.Subtract(ctx, geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.3, 0.3}))
		lps := ctx.Stats.LPs
		r.Subtract(ctx, space)
		if !r.IsEmpty(ctx) {
			t.Errorf("%v: region not empty after a whole-space cutout", strat)
		}
		if ctx.Stats.LPs != lps {
			t.Errorf("%v: whole-space cutout solved %d LPs, want 0", strat, ctx.Stats.LPs-lps)
		}
		if r.NumCutouts() != 1 {
			t.Errorf("%v: %d cutouts kept, want the space alone", strat, r.NumCutouts())
		}
	}
}

func TestRelevancePointsSkipGeometry(t *testing.T) {
	ctx := geometry.NewContext()
	opts := Options{Strategy: StrategyBemporad, RelevancePoints: 16}
	r := New(ctx, geometry.UnitBox(2), opts)
	r.Subtract(ctx, geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.3, 0.3}))
	lpsBefore := ctx.Stats.LPs
	if r.IsEmpty(ctx) {
		t.Fatal("region should not be empty")
	}
	if ctx.Stats.LPs != lpsBefore {
		t.Errorf("IsEmpty solved %d LPs despite surviving relevance points", ctx.Stats.LPs-lpsBefore)
	}
}

func TestRelevancePointsAllConsumed(t *testing.T) {
	ctx := geometry.NewContext()
	opts := Options{Strategy: StrategyCoverDiff, RelevancePoints: 9}
	r := New(ctx, geometry.UnitBox(1), opts)
	// Cover everything: points must all be deleted and the geometric
	// check must report empty.
	r.Subtract(ctx, geometry.Interval(-0.1, 1.1))
	if !r.IsEmpty(ctx) {
		t.Error("fully covered region must be empty")
	}
}

func TestRedundantCutoutElimination(t *testing.T) {
	ctx := geometry.NewContext()
	opts := Options{Strategy: StrategyCoverDiff, EliminateRedundantCutouts: true}
	r := New(ctx, geometry.UnitBox(1), opts)
	r.Subtract(ctx, geometry.Interval(0.2, 0.4))
	r.Subtract(ctx, geometry.Interval(0.25, 0.35)) // inside previous: dropped
	if r.NumCutouts() != 1 {
		t.Errorf("cutouts = %d, want 1 (nested cutout dropped)", r.NumCutouts())
	}
	r.Subtract(ctx, geometry.Interval(0.1, 0.5)) // covers previous: replaces it
	if r.NumCutouts() != 1 {
		t.Errorf("cutouts = %d, want 1 (superseded cutout dropped)", r.NumCutouts())
	}
	// Semantics unchanged: [0.1,0.5] cut out.
	if r.Contains(geometry.Vector{0.3}, 1e-9) {
		t.Error("0.3 should be cut out")
	}
	if !r.Contains(geometry.Vector{0.05}, 1e-9) {
		t.Error("0.05 should be relevant")
	}
}

func TestWitness(t *testing.T) {
	ctx := geometry.NewContext()
	r := New(ctx, geometry.Interval(0, 1), noRefinements(StrategyCoverDiff))
	r.Subtract(ctx, geometry.Interval(0, 0.7))
	w, ok := r.Witness(ctx)
	if !ok {
		t.Fatal("no witness for non-empty region")
	}
	if !r.Contains(w, 1e-6) {
		t.Errorf("witness %v not inside region", w)
	}
	r.Subtract(ctx, geometry.Interval(0.6, 1))
	if _, ok := r.Witness(ctx); ok {
		t.Error("witness returned for empty region")
	}
}

// TestStrategiesAgreeRandom: the two emptiness strategies must agree on
// random cutout configurations (same tolerance regime).
func TestStrategiesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		dim := 1 + rng.Intn(2)
		var cutouts []*geometry.Polytope
		n := rng.Intn(4)
		for k := 0; k < n; k++ {
			lo, hi := geometry.NewVector(dim), geometry.NewVector(dim)
			for i := 0; i < dim; i++ {
				a := rng.Float64() * 1.2
				b := a + rng.Float64()*1.2
				lo[i], hi[i] = a-0.1, b-0.1
			}
			cutouts = append(cutouts, geometry.Box(lo, hi))
		}
		results := make([]bool, 2)
		for si, strat := range []EmptinessStrategy{StrategyBemporad, StrategyCoverDiff} {
			ctx := geometry.NewContext()
			r := New(ctx, geometry.UnitBox(dim), noRefinements(strat))
			r.Subtract(ctx, cutouts...)
			results[si] = r.IsEmpty(ctx)
		}
		if results[0] != results[1] {
			t.Fatalf("trial %d: strategies disagree (bemporad=%v coverdiff=%v), cutouts=%v",
				trial, results[0], results[1], cutouts)
		}
	}
}

// TestSubtractContainsConsistency: after random subtractions, Contains
// must agree with membership in the materialized pieces.
func TestSubtractContainsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctx := geometry.NewContext()
	for trial := 0; trial < 20; trial++ {
		r := New(ctx, geometry.UnitBox(1), noRefinements(StrategyCoverDiff))
		for k := 0; k < 3; k++ {
			a := rng.Float64()
			b := a + rng.Float64()*0.3
			r.Subtract(ctx, geometry.Interval(a, b))
		}
		pieces := r.Pieces(ctx)
		for s := 0; s <= 20; s++ {
			x := geometry.Vector{float64(s) / 20}
			inPieces := false
			for _, p := range pieces {
				if p.ContainsPoint(x, 1e-9) {
					inPieces = true
					break
				}
			}
			// Contains and pieces can disagree only on cutout
			// boundaries; check with a strict margin.
			if r.Contains(x, -1e-6) && !inPieces {
				// x strictly inside region but not in pieces: only
				// acceptable on a piece boundary; verify by nudging.
				if !r.Contains(x, 1e-6) {
					continue
				}
				t.Fatalf("trial %d: %v in region but not in pieces", trial, x)
			}
		}
	}
}
