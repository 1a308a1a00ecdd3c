package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBallCertificate(t *testing.T) {
	ctx := NewSolver(Config{})
	box := Box(Vector{0, 0}, Vector{1, 1})
	// A cut keeping well over half the box: certificate must fire.
	h := Halfspace{W: Vector{1, 0}, B: 0.9}
	if !ctx.BallCertifiesFullDim(box, h) {
		t.Error("certificate failed for a generous cut")
	}
	// A cut through the center: the ball of the box is halved — the
	// certificate is inconclusive or positive depending on margins, but
	// the cut IS full-dimensional; verify consistency with IsFullDim.
	h = Halfspace{W: Vector{1, 0}, B: 0.5}
	if ctx.BallCertifiesFullDim(box, h) {
		// fine — but then the cut must indeed be full-dim
		if !ctx.IsFullDim(box.With(h)) {
			t.Error("certificate fired for a thin cut")
		}
	}
	// A cut removing everything: certificate must NOT fire.
	h = Halfspace{W: Vector{1, 0}, B: -0.5}
	if ctx.BallCertifiesFullDim(box, h) {
		t.Error("certificate fired for an infeasible cut")
	}
	// A cut keeping only the boundary: must not fire.
	h = Halfspace{W: Vector{1, 0}, B: 0}
	if ctx.BallCertifiesFullDim(box, h) {
		t.Error("certificate fired for a boundary-only cut")
	}
}

// TestBallCertificateSoundness: whenever the certificate fires, the cut
// polytope must truly be full-dimensional.
func TestBallCertificateSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := NewSolver(Config{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(3)
		lo, hi := NewVector(dim), NewVector(dim)
		for i := 0; i < dim; i++ {
			hi[i] = 0.5 + r.Float64()
		}
		base := Box(lo, hi)
		var hs []Halfspace
		for k := 0; k < 1+r.Intn(3); k++ {
			w := NewVector(dim)
			for i := range w {
				w[i] = r.Float64()*2 - 1
			}
			hs = append(hs, Halfspace{W: w, B: r.Float64()*2 - 0.5})
		}
		if ctx.BallCertifiesFullDim(base, hs...) {
			return ctx.IsFullDim(base.With(hs...))
		}
		return true // inconclusive is always fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestChebyshevMemoization(t *testing.T) {
	ctx := NewSolver(Config{})
	p := Box(Vector{0}, Vector{2})
	before := ctx.Stats.LPs
	ctx.Chebyshev(p)
	mid := ctx.Stats.LPs
	ctx.Chebyshev(p)
	ctx.IsFullDim(p)
	after := ctx.Stats.LPs
	if mid == before {
		t.Fatal("first Chebyshev call did not solve an LP")
	}
	if after != mid {
		t.Errorf("repeat Chebyshev/IsFullDim solved %d extra LPs, want 0", after-mid)
	}
}

func TestSameFamilyDisjoint(t *testing.T) {
	fam := NewFamily("test")
	a := Interval(0, 0.5)
	b := Interval(0.5, 1)
	c := Interval(0, 1)
	a.MarkFamily(fam)
	b.MarkFamily(fam)
	if !SameFamilyDisjoint(a, b) {
		t.Error("same-family distinct cells not recognized")
	}
	if SameFamilyDisjoint(a, a) {
		t.Error("a polytope is not disjoint from itself")
	}
	if SameFamilyDisjoint(a, c) {
		t.Error("untagged polytope reported disjoint")
	}
	other := NewFamily("other")
	d := Interval(0.2, 0.3)
	d.MarkFamily(other)
	if SameFamilyDisjoint(a, d) {
		t.Error("different families reported disjoint")
	}
}

func TestSameHalfspace(t *testing.T) {
	a := Halfspace{W: Vector{1, 2}, B: 3}
	b := Halfspace{W: Vector{2, 4}, B: 6} // same after scaling
	c := Halfspace{W: Vector{1, 2}, B: 4}
	d := Halfspace{W: Vector{-1, -2}, B: -3} // flipped: different halfspace
	if !sameHalfspace(a, b) {
		t.Error("scaled duplicates not recognized")
	}
	if sameHalfspace(a, c) {
		t.Error("different bounds reported equal")
	}
	if sameHalfspace(a, d) {
		t.Error("flipped halfspace reported equal")
	}
	z1 := Halfspace{W: Vector{0, 0}, B: 1}
	z2 := Halfspace{W: Vector{0, 0}, B: 1}
	if !sameHalfspace(z1, z2) {
		t.Error("degenerate duplicates not recognized")
	}
}

func TestDedupDropsScaledDuplicates(t *testing.T) {
	p := NewPolytope(2,
		Halfspace{W: Vector{1, 0}, B: 1},
		Halfspace{W: Vector{2, 0}, B: 2},
		Halfspace{W: Vector{0.5, 0}, B: 0.5},
		Halfspace{W: Vector{0, 1}, B: 1},
	)
	if p.NumConstraints() != 2 {
		t.Errorf("got %d constraints, want 2", p.NumConstraints())
	}
}

// TestSlackBasisFastPath: LPs whose constraints all have non-negative
// bounds skip phase 1; correctness must be unaffected.
func TestSlackBasisFastPath(t *testing.T) {
	ctx := NewSolver(Config{})
	// All bounds >= 0.
	res := ctx.Maximize(Vector{1, 1}, Box(Vector{0, 0}, Vector{1, 2}).Constraints())
	if res.Status != LPOptimal || !almostEqual(res.Value, 3, 1e-7) {
		t.Errorf("fast path: got %v %v, want optimal 3", res.Status, res.Value)
	}
	// Mixed bounds (negative lower bound => negative B rows).
	res = ctx.Maximize(Vector{-1, 0}, Box(Vector{-3, 1}, Vector{-1, 2}).Constraints())
	if res.Status != LPOptimal || !almostEqual(res.Value, 3, 1e-7) {
		t.Errorf("mixed path: got %v %v, want optimal 3", res.Status, res.Value)
	}
}
