package geometry

import (
	"math/rand"
	"testing"
)

func TestRegionDiffBasic1D(t *testing.T) {
	ctx := NewSolver(Config{})
	x := Interval(0, 1)
	// Subtract [0, 0.25]: residual should be [0.25, 1].
	res := ctx.RegionDiff(x, []*Polytope{Interval(0, 0.25)})
	if len(res) != 1 {
		t.Fatalf("got %d pieces, want 1", len(res))
	}
	lo, hi, ok := ctx.Vertices1D(res[0])
	if !ok || !almostEqual(lo, 0.25, 1e-6) || !almostEqual(hi, 1, 1e-6) {
		t.Errorf("residual = [%v,%v], want [0.25,1]", lo, hi)
	}
}

func TestRegionDiffFullCover1D(t *testing.T) {
	ctx := NewSolver(Config{})
	x := Interval(0, 1)
	// Two closed cutouts meeting at 0.5 cover the interval; the shared
	// boundary point must not be reported as a residual.
	cutouts := []*Polytope{Interval(0, 0.5), Interval(0.5, 1)}
	res := ctx.RegionDiff(x, cutouts)
	if len(res) != 0 {
		t.Fatalf("got %d residual pieces, want 0: %v", len(res), res)
	}
	if !ctx.UnionCovers(x, cutouts) {
		t.Error("UnionCovers = false, want true")
	}
}

func TestRegionDiffGapLeft(t *testing.T) {
	ctx := NewSolver(Config{})
	x := Interval(0, 1)
	cutouts := []*Polytope{Interval(0, 0.4), Interval(0.6, 1)}
	if ctx.UnionCovers(x, cutouts) {
		t.Error("UnionCovers = true, want false (gap at (0.4,0.6))")
	}
	w := ctx.UncoveredWitness(x, cutouts)
	if w == nil {
		t.Fatal("no witness for uncovered gap")
	}
	c, _, ok := ctx.Chebyshev(w)
	if !ok {
		t.Fatal("witness empty")
	}
	if c[0] < 0.4-1e-6 || c[0] > 0.6+1e-6 {
		t.Errorf("witness center %v not inside gap", c)
	}
}

func TestRegionDiffFigure10(t *testing.T) {
	// Figure 10 of the paper: a triangular cutout is subtracted from a
	// square region; the residual is non-empty.
	ctx := NewSolver(Config{})
	square := UnitBox(2)
	// Triangle with corners (0,1), (1,1), (0,0): y >= x region of square.
	triangle := UnitBox(2).With(Halfspace{W: Vector{1, -1}, B: 0}) // x - y <= 0
	res := ctx.RegionDiff(square, []*Polytope{triangle})
	if len(res) == 0 {
		t.Fatal("residual empty, want lower-right triangle")
	}
	// Residual must be the lower-right triangle x >= y; every residual
	// piece must satisfy x >= y on its Chebyshev center.
	for _, p := range res {
		c, _, ok := ctx.Chebyshev(p)
		if !ok {
			t.Fatal("residual piece empty")
		}
		if c[0] < c[1]-1e-6 {
			t.Errorf("residual center %v inside cutout", c)
		}
	}
	// Subtracting both triangles covers the square.
	lower := UnitBox(2).With(Halfspace{W: Vector{-1, 1}, B: 0}) // y <= x
	if !ctx.UnionCovers(square, []*Polytope{triangle, lower}) {
		t.Error("two triangles should cover the square")
	}
}

func TestRegionDiffEmptyPiece(t *testing.T) {
	ctx := NewSolver(Config{})
	empty := UnitBox(2).With(Halfspace{W: Vector{1, 0}, B: -1})
	res := ctx.RegionDiff(empty, []*Polytope{UnitBox(2)})
	if len(res) != 0 {
		t.Errorf("empty minuend produced %d pieces", len(res))
	}
	// Subtracting nothing returns the region itself.
	res = ctx.RegionDiff(UnitBox(2), nil)
	if len(res) != 1 {
		t.Fatalf("got %d pieces, want 1", len(res))
	}
}

// TestRegionDiffProperties checks, on random instances, the defining
// properties of the region difference: (1) residual pieces lie inside P,
// (2) residual piece interiors avoid every cutout, (3) P is covered by
// residual pieces plus cutouts.
func TestRegionDiffProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := NewSolver(Config{})
	for trial := 0; trial < 30; trial++ {
		dim := 1 + rng.Intn(2)
		p := UnitBox(dim)
		nCut := 1 + rng.Intn(3)
		cutouts := make([]*Polytope, 0, nCut)
		for k := 0; k < nCut; k++ {
			lo, hi := NewVector(dim), NewVector(dim)
			for i := 0; i < dim; i++ {
				a, b := rng.Float64(), rng.Float64()
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
			}
			cutouts = append(cutouts, Box(lo, hi))
		}
		res := ctx.RegionDiff(p, cutouts)
		for _, piece := range res {
			c, r, ok := ctx.Chebyshev(piece)
			if !ok || r <= ctx.RadiusTol {
				t.Fatalf("trial %d: thin piece survived (r=%v)", trial, r)
			}
			if !p.ContainsPoint(c, 1e-6) {
				t.Fatalf("trial %d: piece center %v outside P", trial, c)
			}
			for _, cut := range cutouts {
				if cut.ContainsPoint(c, -1e-9) { // strictly inside a cutout
					t.Fatalf("trial %d: piece center %v strictly inside cutout", trial, c)
				}
			}
		}
		// Coverage: P ⊆ cutouts ∪ residual pieces.
		all := append(append([]*Polytope{}, cutouts...), res...)
		if !ctx.UnionCovers(p, all) {
			t.Fatalf("trial %d: residual + cutouts do not cover P", trial)
		}
	}
}

// sameSet reports whether p and q describe the same point set, by
// mutual containment.
func sameSet(s *Solver, p, q *Polytope) bool {
	return s.Contains(p, q) && s.Contains(q, p)
}

func TestUnionConvex(t *testing.T) {
	ctx := NewSolver(Config{})
	// Two halves of the unit square: union is convex (the square itself).
	left := Box(Vector{0, 0}, Vector{0.5, 1})
	right := Box(Vector{0.5, 0}, Vector{1, 1})
	u, convex := ctx.UnionConvex([]*Polytope{left, right})
	if !convex {
		t.Fatal("union of two halves of a square must be convex")
	}
	if !sameSet(ctx, u, UnitBox(2)) {
		t.Errorf("union = %v, want unit square", u)
	}
	// An L-shape is not convex.
	bottom := Box(Vector{0, 0}, Vector{1, 0.5})
	leftCol := Box(Vector{0, 0}, Vector{0.5, 1})
	if _, convex := ctx.UnionConvex([]*Polytope{bottom, leftCol}); convex {
		t.Error("L-shaped union reported convex")
	}
	// Two disjoint boxes are not convex.
	a := Box(Vector{0, 0}, Vector{0.2, 0.2})
	b := Box(Vector{0.8, 0.8}, Vector{1, 1})
	if _, convex := ctx.UnionConvex([]*Polytope{a, b}); convex {
		t.Error("disjoint union reported convex")
	}
}

func TestUnionConvexDegenerate(t *testing.T) {
	ctx := NewSolver(Config{})
	if _, convex := ctx.UnionConvex(nil); !convex {
		t.Error("empty union should be convex")
	}
	p := UnitBox(2)
	u, convex := ctx.UnionConvex([]*Polytope{p})
	if !convex || u != p {
		t.Error("singleton union should be the polytope itself")
	}
	// Nested polytopes: union is the outer one.
	inner := Box(Vector{0.2, 0.2}, Vector{0.4, 0.4})
	u, convex = ctx.UnionConvex([]*Polytope{p, inner})
	if !convex {
		t.Fatal("nested union must be convex")
	}
	if !sameSet(ctx, u, p) {
		t.Errorf("nested union = %v, want unit box", u)
	}
}

func TestUnionConvex1DIntervals(t *testing.T) {
	ctx := NewSolver(Config{})
	// Overlapping intervals: convex.
	u, convex := ctx.UnionConvex([]*Polytope{Interval(0, 0.6), Interval(0.4, 1)})
	if !convex {
		t.Fatal("overlapping intervals union must be convex")
	}
	lo, hi, _ := ctx.Vertices1D(u)
	if !almostEqual(lo, 0, 1e-6) || !almostEqual(hi, 1, 1e-6) {
		t.Errorf("union = [%v,%v], want [0,1]", lo, hi)
	}
	// Touching intervals: convex (closed sets share the point).
	if _, convex := ctx.UnionConvex([]*Polytope{Interval(0, 0.5), Interval(0.5, 1)}); !convex {
		t.Error("touching intervals union must be convex")
	}
	// Intervals with a gap: not convex.
	if _, convex := ctx.UnionConvex([]*Polytope{Interval(0, 0.4), Interval(0.6, 1)}); convex {
		t.Error("gapped intervals union reported convex")
	}
}
