package pwl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpq/internal/geometry"
)

// randPWL builds a random single-objective PWL function on [0,1]^dim by
// approximating a random quadratic on a random grid.
func randPWL(r *rand.Rand, dim int) *Function {
	a := make([]float64, dim)
	b := make([]float64, dim)
	for i := range a {
		a[i] = r.Float64()*4 - 2
		b[i] = r.Float64()*4 - 2
	}
	c := r.Float64() * 3
	f := func(x geometry.Vector) float64 {
		s := c
		for i := range x {
			s += a[i]*x[i]*x[i] + b[i]*x[i]
		}
		return s
	}
	lo := geometry.NewVector(dim)
	hi := geometry.NewVector(dim)
	for i := range hi {
		hi[i] = 1
	}
	return Approximate(f, lo, hi, 1+r.Intn(2))
}

func TestAddPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := geometry.NewSolver(geometry.Config{})
	for trial := 0; trial < 25; trial++ {
		dim := 1 + rng.Intn(2)
		f, g := randPWL(rng, dim), randPWL(rng, dim)
		sum := Add(ctx, f, g)
		lo := geometry.NewVector(dim)
		hi := geometry.NewVector(dim)
		for i := range hi {
			hi[i] = 1
		}
		for _, x := range geometry.SamplePointsInBox(lo, hi, 5, 50) {
			fv, _ := f.Eval(x)
			gv, _ := g.Eval(x)
			sv, ok := sum.Eval(x)
			if !ok {
				t.Fatalf("trial %d: sum undefined at %v", trial, x)
			}
			if !almostEqual(sv, fv+gv, 1e-6) {
				t.Fatalf("trial %d: sum(%v)=%v, want %v", trial, x, sv, fv+gv)
			}
		}
	}
}

func TestMinMaxPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := geometry.NewSolver(geometry.Config{})
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(2)
		f, g := randPWL(rng, dim), randPWL(rng, dim)
		mn := Min(ctx, f, g)
		mx := Max(ctx, f, g)
		lo := geometry.NewVector(dim)
		hi := geometry.NewVector(dim)
		for i := range hi {
			hi[i] = 1
		}
		for _, x := range geometry.SamplePointsInBox(lo, hi, 5, 50) {
			fv, _ := f.Eval(x)
			gv, _ := g.Eval(x)
			mnv, _ := mn.Eval(x)
			mxv, _ := mx.Eval(x)
			if !almostEqual(mnv, math.Min(fv, gv), 1e-6) {
				t.Fatalf("trial %d: min(%v)=%v, want %v", trial, x, mnv, math.Min(fv, gv))
			}
			if !almostEqual(mxv, math.Max(fv, gv), 1e-6) {
				t.Fatalf("trial %d: max(%v)=%v, want %v", trial, x, mxv, math.Max(fv, gv))
			}
		}
	}
}

func TestScaleAddConstant(t *testing.T) {
	f := Linear(unitInterval(), geometry.Vector{2}, 1)
	g := Scale(f, 3)
	v, _ := g.Eval(geometry.Vector{0.5})
	if !almostEqual(v, 6, 1e-12) {
		t.Errorf("scale: got %v, want 6", v)
	}
	h := AddConstant(f, 10)
	v, _ = h.Eval(geometry.Vector{0.5})
	if !almostEqual(v, 12, 1e-12) {
		t.Errorf("addconst: got %v, want 12", v)
	}
}

func TestWeightedSum(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	dom := unitInterval()
	m := NewMulti(
		Linear(dom, geometry.Vector{1}, 0), // time = x
		Constant(dom, 4),                   // fees = 4
	)
	ws := WeightedSum(ctx, m, []float64{2, 0.5})
	v, _ := ws.Eval(geometry.Vector{0.5})
	if !almostEqual(v, 2*0.5+0.5*4, 1e-9) {
		t.Errorf("weighted sum = %v, want 3", v)
	}
}

func TestAccumulateMultiSum(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	dom := unitInterval()
	c1 := NewMulti(Linear(dom, geometry.Vector{1}, 0), Constant(dom, 1))
	c2 := NewMulti(Linear(dom, geometry.Vector{2}, 1), Constant(dom, 2))
	op := NewMulti(Constant(dom, 0.5), Constant(dom, 0.25))
	acc := AccumulateMulti(ctx, []AccumMode{AccumSum, AccumSum}, op, c1, c2)
	v, _ := acc.Eval(geometry.Vector{0.5})
	want := geometry.Vector{0.5 + 2 + 0.5, 1 + 2 + 0.25}
	if !v.Equal(want, 1e-9) {
		t.Errorf("accumulated = %v, want %v", v, want)
	}
}

func TestAccumulateMultiMax(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	dom := unitInterval()
	// time(c1) = x, time(c2) = 1-x: max crosses at 0.5.
	c1 := NewMulti(Linear(dom, geometry.Vector{1}, 0))
	c2 := NewMulti(Linear(dom, geometry.Vector{-1}, 1))
	op := NewMulti(Constant(dom, 0))
	acc := AccumulateMulti(ctx, []AccumMode{AccumMax}, op, c1, c2)
	for _, x := range []float64{0.1, 0.5, 0.9} {
		v, _ := acc.Eval(geometry.Vector{x})
		want := math.Max(x, 1-x)
		if !almostEqual(v[0], want, 1e-9) {
			t.Errorf("max-accum(%v) = %v, want %v", x, v[0], want)
		}
	}
}

func TestCompactMergesPieces(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	// Same linear function on two adjacent intervals: should merge.
	f := NewFunction(
		Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{2}, B: 1},
		Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{2}, B: 1},
		Piece{Region: geometry.Interval(0, 1), W: geometry.Vector{3}, B: 0},
	)
	c := Compact(ctx, f)
	if c.NumPieces() != 2 {
		t.Fatalf("compact produced %d pieces, want 2", c.NumPieces())
	}
	// Disjoint regions with the same function must NOT merge.
	g := NewFunction(
		Piece{Region: geometry.Interval(0, 0.2), W: geometry.Vector{2}, B: 1},
		Piece{Region: geometry.Interval(0.8, 1), W: geometry.Vector{2}, B: 1},
	)
	cg := Compact(ctx, g)
	if cg.NumPieces() != 2 {
		t.Fatalf("compact merged disjoint regions: %d pieces", cg.NumPieces())
	}
}

// TestCompactKeepsLargeCoefficientsApart: base costs of 1e9 and 2e9
// round to keys outside int64's range; they must still key apart, so
// the two adjacent pieces stay separate and Eval(0.9) is 2e9.
func TestCompactKeepsLargeCoefficientsApart(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	f := NewFunction(
		Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{0}, B: 1e9},
		Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{0}, B: 2e9},
	)
	c := Compact(ctx, f)
	if c.NumPieces() != 2 {
		t.Fatalf("compact produced %d pieces, want 2", c.NumPieces())
	}
	if v := c.MustEval(geometry.Vector{0.9}); v != 2e9 {
		t.Errorf("Eval(0.9) = %v, want 2e9", v)
	}
	// Equal large coefficients still merge.
	g := NewFunction(
		Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{0}, B: 2e9},
		Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{0}, B: 2e9},
	)
	if n := Compact(ctx, g).NumPieces(); n != 1 {
		t.Errorf("equal large pieces compacted to %d pieces, want 1", n)
	}
}

// TestFinishCompactsPendingMulti: a Multi marked for compaction keeps
// its pieces until Finish, which compacts every component exactly as
// Compact does, once; the unmarked original is not modified.
func TestFinishCompactsPendingMulti(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	split := NewFunction(
		Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{2}, B: 1},
		Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{2}, B: 1},
	)
	orig := NewMulti(split, Constant(geometry.Interval(0, 1), 3))
	if orig.pending || orig.Finish(ctx) {
		t.Fatal("an unmarked Multi must have nothing pending")
	}
	m := orig.WithPendingCompaction()
	if !m.pending || m.TotalPieces() != 3 {
		t.Fatalf("marked Multi: pending %v, %d pieces; want pending with 3 pieces", m.pending, m.TotalPieces())
	}
	if !m.Finish(ctx) {
		t.Fatal("Finish reported nothing pending on a marked Multi")
	}
	if m.pending || m.TotalPieces() != 2 {
		t.Fatalf("finished Multi: pending %v, %d pieces; want finished with 2 pieces", m.pending, m.TotalPieces())
	}
	if m.Finish(ctx) {
		t.Error("a second Finish reported pending work")
	}
	if orig.TotalPieces() != 3 {
		t.Errorf("Finish modified the unmarked original: %d pieces, want 3", orig.TotalPieces())
	}
}

// TestDomMatchesPointwise is the central property test of the dominance
// computation: a sampled point is inside some dominance polytope exactly
// when c1 is at most c2 on every metric at that point.
func TestDomMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := geometry.NewSolver(geometry.Config{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(2)
		nM := 1 + r.Intn(2)
		mk := func() *Multi {
			comps := make([]*Function, nM)
			for i := range comps {
				comps[i] = randPWL(r, dim)
			}
			return NewMulti(comps...)
		}
		c1, c2 := mk(), mk()
		polys := Dom(ctx, c1, c2)
		lo := geometry.NewVector(dim)
		hi := geometry.NewVector(dim)
		for i := range hi {
			hi[i] = 1
		}
		for _, x := range geometry.SamplePointsInBox(lo, hi, 6, 40) {
			v1, _ := c1.Eval(x)
			v2, _ := c2.Eval(x)
			dominates := true
			margin := math.Inf(1)
			for m := 0; m < nM; m++ {
				if v1[m] > v2[m]+1e-9 {
					dominates = false
				}
				if d := v2[m] - v1[m]; d < margin {
					margin = d
				}
			}
			inPoly := false
			for _, p := range polys {
				if p.ContainsPoint(x, 1e-7) {
					inPoly = true
					break
				}
			}
			// Only check points with a clear margin to avoid boundary
			// ambiguity (dominance regions are closed; thin regions are
			// dropped by design).
			if margin > 1e-3 && !inPoly {
				return false
			}
			if margin < -1e-3 && inPoly {
				return false
			}
			_ = dominates
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDominatesEverywhere(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	dom := unitInterval()
	cheap := NewMulti(Linear(dom, geometry.Vector{1}, 0), Constant(dom, 1))
	expensive := NewMulti(Linear(dom, geometry.Vector{1}, 1), Constant(dom, 2))
	if !DominatesEverywhere(ctx, cheap, expensive, dom) {
		t.Error("cheap should dominate expensive everywhere")
	}
	if DominatesEverywhere(ctx, expensive, cheap, dom) {
		t.Error("expensive should not dominate cheap")
	}
	// Equal functions dominate each other everywhere (ties count).
	if !DominatesEverywhere(ctx, cheap, cheap, dom) {
		t.Error("function should dominate itself")
	}
	// Crossing functions: neither dominates everywhere.
	a := NewMulti(Linear(dom, geometry.Vector{1}, 0), Constant(dom, 1))
	b := NewMulti(Linear(dom, geometry.Vector{-1}, 1), Constant(dom, 1))
	if DominatesEverywhere(ctx, a, b, dom) || DominatesEverywhere(ctx, b, a, dom) {
		t.Error("crossing functions must not dominate everywhere")
	}
}

func TestDomDisjointOnAllMetrics(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	dom := unitInterval()
	// c1 strictly worse on metric 0 everywhere: no dominance region.
	c1 := NewMulti(Constant(dom, 5), Constant(dom, 1))
	c2 := NewMulti(Constant(dom, 1), Constant(dom, 5))
	if polys := Dom(ctx, c1, c2); len(polys) != 0 {
		t.Errorf("Dom returned %d polytopes, want none", len(polys))
	}
}
