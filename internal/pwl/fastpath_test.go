package pwl

import (
	"math/rand"
	"testing"

	"mpq/internal/geometry"
)

// TestAlignedFastPathMatchesGeneral: combining two functions built on
// the same grid (fast path) must produce the same function values as
// combining structurally identical functions without shared region
// objects (general path).
func TestAlignedFastPathMatchesGeneral(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	lo, hi := geometry.Vector{0, 0}, geometry.Vector{1, 1}
	fClosure := func(x geometry.Vector) float64 { return x[0]*x[1] + 1 }
	gClosure := func(x geometry.Vector) float64 { return 2*x[0] - x[1]*x[1] + 3 }

	grid := NewGrid(lo, hi, 2)
	fShared, gShared := grid.Interpolate(fClosure), grid.Interpolate(gClosure)
	// Independent grids: same geometry, different region objects.
	fIndep := NewGrid(lo, hi, 2).Interpolate(fClosure)
	gIndep := NewGrid(lo, hi, 2).Interpolate(gClosure)

	sumShared := Add(ctx, fShared, gShared)
	sumIndep := Add(ctx, fIndep, gIndep)
	maxShared := Max(ctx, fShared, gShared)
	maxIndep := Max(ctx, fIndep, gIndep)

	for _, x := range geometry.SamplePointsInBox(lo, hi, 7, 100) {
		a, _ := sumShared.Eval(x)
		b, _ := sumIndep.Eval(x)
		if !almostEqual(a, b, 1e-9) {
			t.Fatalf("Add mismatch at %v: %v vs %v", x, a, b)
		}
		a, _ = maxShared.Eval(x)
		b, _ = maxIndep.Eval(x)
		if !almostEqual(a, b, 1e-9) {
			t.Fatalf("Max mismatch at %v: %v vs %v", x, a, b)
		}
	}
	// The fast path must not blow up piece counts.
	if sumShared.NumPieces() > grid.NumRegions() {
		t.Errorf("aligned Add produced %d pieces on a %d-region grid",
			sumShared.NumPieces(), grid.NumRegions())
	}
}

// TestAlignedFastPathSavesLPs: combining aligned functions must solve
// strictly fewer LPs than the general cross-product path.
func TestAlignedFastPathSavesLPs(t *testing.T) {
	lo, hi := geometry.Vector{0, 0}, geometry.Vector{1, 1}
	f := func(x geometry.Vector) float64 { return x[0] * x[1] }
	g := func(x geometry.Vector) float64 { return x[0] + x[1]*x[1] }

	grid := NewGrid(lo, hi, 3)
	ctxShared := geometry.NewSolver(geometry.Config{})
	Add(ctxShared, grid.Interpolate(f), grid.Interpolate(g))
	shared := ctxShared.Stats.LPs

	ctxIndep := geometry.NewSolver(geometry.Config{})
	Add(ctxIndep, NewGrid(lo, hi, 3).Interpolate(f), NewGrid(lo, hi, 3).Interpolate(g))
	indep := ctxIndep.Stats.LPs

	if shared >= indep {
		t.Errorf("aligned path solved %d LPs, general %d — expected savings", shared, indep)
	}
	if shared != 0 {
		t.Errorf("aligned path solved %d LPs, want 0", shared)
	}
}

// TestDomFastPathMatchesGeneral: dominance regions computed via the
// aligned fast path must classify sample points like the general path.
func TestDomFastPathMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lo, hi := geometry.Vector{0, 0}, geometry.Vector{1, 1}
	for trial := 0; trial < 10; trial++ {
		a0, a1 := rng.Float64()*2, rng.Float64()*2
		f := func(x geometry.Vector) float64 { return a0*x[0]*x[1] + x[0] }
		g := func(x geometry.Vector) float64 { return a1 * (x[0] + x[1]) }
		grid := NewGrid(lo, hi, 2)
		ctx := geometry.NewSolver(geometry.Config{})
		shared := Dom(ctx, NewMulti(grid.Interpolate(f)), NewMulti(grid.Interpolate(g)))
		indep := Dom(ctx, NewMulti(NewGrid(lo, hi, 2).Interpolate(f)), NewMulti(NewGrid(lo, hi, 2).Interpolate(g)))
		for _, x := range geometry.SamplePointsInBox(lo, hi, 5, 30) {
			inShared := pointInAny(shared, x)
			inIndep := pointInAny(indep, x)
			// Allow disagreement only near dominance boundaries.
			fv := evalOn(grid, f, x)
			gv := evalOn(grid, g, x)
			if d := gv - fv; d > 1e-3 || d < -1e-3 {
				if inShared != inIndep {
					t.Fatalf("trial %d: fast/general dominance mismatch at %v (margin %v)", trial, x, d)
				}
			}
		}
	}
}

func pointInAny(polys []*geometry.Polytope, x geometry.Vector) bool {
	for _, p := range polys {
		if p.ContainsPoint(x, 1e-7) {
			return true
		}
	}
	return false
}

func evalOn(g *Grid, f func(geometry.Vector) float64, x geometry.Vector) float64 {
	v, _ := g.Interpolate(f).Eval(x)
	return v
}

func TestWithCover(t *testing.T) {
	dom := geometry.Interval(0, 1)
	f := NewFunction(Piece{Region: dom, W: geometry.Vector{1}, B: 0})
	if f.Cover() != nil {
		t.Error("raw function should have no cover")
	}
	g := f.WithCover(dom)
	if g.Cover() != dom {
		t.Error("WithCover did not set cover")
	}
	// Linear/Constant carry their domain as cover automatically.
	if Linear(dom, geometry.Vector{1}, 0).Cover() != dom {
		t.Error("Linear missing cover")
	}
	if Constant(dom, 1).Cover() != dom {
		t.Error("Constant missing cover")
	}
	// Scale/AddConstant preserve the cover.
	if Scale(g, 2).Cover() != dom || AddConstant(g, 1).Cover() != dom {
		t.Error("Scale/AddConstant dropped cover")
	}
}

func TestGridProperties(t *testing.T) {
	lo, hi := geometry.Vector{0, 0}, geometry.Vector{2, 4}
	g := NewGrid(lo, hi, 3)
	if g.NumRegions() != 3*3*2 {
		t.Errorf("regions = %d, want 18", g.NumRegions())
	}
	ctx := geometry.NewSolver(geometry.Config{})
	// The regions cover the box.
	if !ctx.UnionCovers(geometry.Box(lo, hi), g.regions) {
		t.Error("grid regions do not cover the box")
	}
	// Distinct regions are family-disjoint.
	if !geometry.SameFamilyDisjoint(g.regions[0], g.regions[1]) {
		t.Error("grid regions not marked as one partition family")
	}
}
