package geometry

import (
	"math"
	"testing"
)

func TestBoxContainsPoint(t *testing.T) {
	p := Box(Vector{0, 0}, Vector{1, 2})
	cases := []struct {
		x    Vector
		want bool
	}{
		{Vector{0.5, 1}, true},
		{Vector{0, 0}, true},
		{Vector{1, 2}, true},
		{Vector{1.1, 1}, false},
		{Vector{0.5, -0.1}, false},
	}
	for _, c := range cases {
		if got := p.ContainsPoint(c.x, 1e-9); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestIntersectDedup(t *testing.T) {
	p := UnitBox(2)
	q := UnitBox(2)
	r := p.Intersect(q)
	if r.NumConstraints() != 4 {
		t.Errorf("intersection has %d constraints, want 4 (duplicates removed)", r.NumConstraints())
	}
}

// TestIsEmpty: Chebyshev's ok result is the solver's emptiness answer.
// A box and a single point are non-empty, a contradictory system is
// empty, and of the non-empty ones only the box is full-dimensional.
func TestIsEmpty(t *testing.T) {
	ctx := NewSolver(Config{})
	p := UnitBox(2)
	if _, _, ok := ctx.Chebyshev(p); !ok {
		t.Error("unit box reported empty")
	}
	q := p.With(Halfspace{W: Vector{1, 0}, B: -1}) // x <= -1 conflicts with x >= 0
	if _, _, ok := ctx.Chebyshev(q); ok {
		t.Error("infeasible polytope reported non-empty")
	}
	// A single point is not empty (but is lower-dimensional).
	pt := p.With(
		Halfspace{W: Vector{1, 0}, B: 0},
		Halfspace{W: Vector{0, 1}, B: 0},
	)
	if _, _, ok := ctx.Chebyshev(pt); !ok {
		t.Error("single point reported empty")
	}
	if ctx.IsFullDim(pt) {
		t.Error("single point reported full-dimensional")
	}
}

func TestChebyshev(t *testing.T) {
	ctx := NewSolver(Config{})
	p := Box(Vector{0, 0}, Vector{2, 4})
	c, r, ok := ctx.Chebyshev(p)
	if !ok {
		t.Fatal("chebyshev failed on box")
	}
	if !almostEqual(r, 1, 1e-6) {
		t.Errorf("radius = %v, want 1", r)
	}
	if !almostEqual(c[0], 1, 1e-6) {
		t.Errorf("center x = %v, want 1", c[0])
	}
	if c[1] < 1-1e-6 || c[1] > 3+1e-6 {
		t.Errorf("center y = %v, want within [1,3]", c[1])
	}
}

func TestChebyshevUnbounded(t *testing.T) {
	ctx := NewSolver(Config{})
	// Halfplane x >= 0 in 2D: unbounded inscribed balls.
	p := NewPolytope(2, Halfspace{W: Vector{-1, 0}, B: 0})
	_, r, ok := ctx.Chebyshev(p)
	if !ok {
		t.Fatal("chebyshev failed on halfplane")
	}
	if !math.IsInf(r, 1) {
		t.Errorf("radius = %v, want +Inf", r)
	}
}

func TestContains(t *testing.T) {
	ctx := NewSolver(Config{})
	outer := Box(Vector{0, 0}, Vector{10, 10})
	inner := Box(Vector{2, 2}, Vector{3, 3})
	if !ctx.Contains(outer, inner) {
		t.Error("outer should contain inner")
	}
	if ctx.Contains(inner, outer) {
		t.Error("inner should not contain outer")
	}
	if !ctx.Contains(outer, outer) {
		t.Error("polytope should contain itself")
	}
	empty := inner.With(Halfspace{W: Vector{1, 0}, B: 0})
	if !ctx.Contains(inner, empty) {
		t.Error("everything contains the empty set")
	}
}

func TestBoundingBox(t *testing.T) {
	ctx := NewSolver(Config{})
	// Triangle x,y >= 0, x + y <= 2.
	p := NewPolytope(2,
		Halfspace{W: Vector{-1, 0}, B: 0},
		Halfspace{W: Vector{0, -1}, B: 0},
		Halfspace{W: Vector{1, 1}, B: 2},
	)
	lo, hi, ok := ctx.BoundingBox(p)
	if !ok {
		t.Fatal("bounding box failed")
	}
	if !lo.Equal(Vector{0, 0}, 1e-6) || !hi.Equal(Vector{2, 2}, 1e-6) {
		t.Errorf("bbox = %v..%v, want (0,0)..(2,2)", lo, hi)
	}
}

func TestVertices1D(t *testing.T) {
	ctx := NewSolver(Config{})
	p := Interval(0.25, 1)
	lo, hi, ok := ctx.Vertices1D(p)
	if !ok || !almostEqual(lo, 0.25, 1e-7) || !almostEqual(hi, 1, 1e-7) {
		t.Errorf("Vertices1D = %v..%v ok=%v, want 0.25..1", lo, hi, ok)
	}
}

func TestSamplePointsInBox(t *testing.T) {
	pts := SamplePointsInBox(Vector{0, 0}, Vector{1, 1}, 3, 100)
	if len(pts) != 9 {
		t.Fatalf("got %d points, want 9", len(pts))
	}
	box := UnitBox(2)
	for _, p := range pts {
		if !box.ContainsPoint(p, 1e-9) {
			t.Errorf("sample %v outside box", p)
		}
	}
	// Cap respected.
	pts = SamplePointsInBox(Vector{0, 0, 0}, Vector{1, 1, 1}, 10, 50)
	if len(pts) > 50 {
		t.Errorf("cap exceeded: %d points", len(pts))
	}
	// Degenerate single point.
	pts = SamplePointsInBox(Vector{0.5}, Vector{0.5}, 1, 10)
	if len(pts) != 1 || !almostEqual(pts[0][0], 0.5, 1e-12) {
		t.Errorf("single-point sampling = %v", pts)
	}
}
