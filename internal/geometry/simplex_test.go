package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMaximizeSimple2D(t *testing.T) {
	ctx := NewSolver(Config{})
	// max x + y s.t. x <= 2, y <= 3, x >= 0, y >= 0.
	p := Box(Vector{0, 0}, Vector{2, 3})
	res := ctx.Maximize(Vector{1, 1}, p.Constraints())
	if res.Status != LPOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if !almostEqual(res.Value, 5, 1e-7) {
		t.Errorf("value = %v, want 5", res.Value)
	}
	if !res.X.Equal(Vector{2, 3}, 1e-7) {
		t.Errorf("x = %v, want (2,3)", res.X)
	}
}

func TestMaximizeNegativeRegion(t *testing.T) {
	ctx := NewSolver(Config{})
	// Region entirely in the negative orthant: [-5,-1]^2.
	p := Box(Vector{-5, -5}, Vector{-1, -1})
	res := ctx.Maximize(Vector{1, 1}, p.Constraints())
	if res.Status != LPOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if !almostEqual(res.Value, -2, 1e-7) {
		t.Errorf("value = %v, want -2", res.Value)
	}
	// Minimize x+y: maximize -(x+y).
	res = ctx.Maximize(Vector{-1, -1}, p.Constraints())
	if !almostEqual(res.Value, 10, 1e-7) {
		t.Errorf("value = %v, want 10", res.Value)
	}
}

func TestMaximizeGeneralConstraints(t *testing.T) {
	ctx := NewSolver(Config{})
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x, y >= 0.
	hs := []Halfspace{
		{W: Vector{1, 1}, B: 4},
		{W: Vector{1, 3}, B: 6},
		{W: Vector{-1, 0}, B: 0},
		{W: Vector{0, -1}, B: 0},
	}
	res := ctx.Maximize(Vector{3, 2}, hs)
	if res.Status != LPOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	// Optimum at (4, 0): value 12.
	if !almostEqual(res.Value, 12, 1e-7) {
		t.Errorf("value = %v, want 12", res.Value)
	}
}

func TestMaximizeInfeasible(t *testing.T) {
	ctx := NewSolver(Config{})
	hs := []Halfspace{
		{W: Vector{1}, B: 0},   // x <= 0
		{W: Vector{-1}, B: -1}, // x >= 1
	}
	res := ctx.Maximize(Vector{1}, hs)
	if res.Status != LPInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMaximizeUnbounded(t *testing.T) {
	ctx := NewSolver(Config{})
	hs := []Halfspace{{W: Vector{-1, 0}, B: 0}} // x >= 0, y free
	res := ctx.Maximize(Vector{1, 0}, hs)
	if res.Status != LPUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestMaximizeDegenerateHalfspaces(t *testing.T) {
	ctx := NewSolver(Config{})
	// A trivial constraint (0 <= 1) should be ignored; an infeasible one
	// (0 <= -1) makes the program infeasible.
	hs := []Halfspace{
		{W: Vector{0, 0}, B: 1},
		{W: Vector{1, 0}, B: 2},
		{W: Vector{-1, 0}, B: 0},
		{W: Vector{0, 1}, B: 2},
		{W: Vector{0, -1}, B: 0},
	}
	res := ctx.Maximize(Vector{1, 1}, hs)
	if res.Status != LPOptimal || !almostEqual(res.Value, 4, 1e-7) {
		t.Fatalf("got %v value %v, want optimal 4", res.Status, res.Value)
	}
	hs = append(hs, Halfspace{W: Vector{0, 0}, B: -1})
	res = ctx.Maximize(Vector{1, 1}, hs)
	if res.Status != LPInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMaximizeEqualityViaPair(t *testing.T) {
	ctx := NewSolver(Config{})
	// x + y == 1 encoded as two inequalities; maximize x over the segment
	// with 0 <= x, y.
	hs := []Halfspace{
		{W: Vector{1, 1}, B: 1},
		{W: Vector{-1, -1}, B: -1},
		{W: Vector{-1, 0}, B: 0},
		{W: Vector{0, -1}, B: 0},
	}
	res := ctx.Maximize(Vector{1, 0}, hs)
	if res.Status != LPOptimal || !almostEqual(res.Value, 1, 1e-7) {
		t.Fatalf("got %v value %v, want optimal 1", res.Status, res.Value)
	}
}

func TestFeasiblePoint(t *testing.T) {
	ctx := NewSolver(Config{})
	p := Box(Vector{-1, 2}, Vector{0, 5})
	res := ctx.FeasiblePoint(p.Constraints(), 2)
	if res.Status != LPOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if !p.ContainsPoint(res.X, 1e-7) {
		t.Errorf("feasible point %v outside polytope", res.X)
	}
}

func TestLPCounter(t *testing.T) {
	ctx := NewSolver(Config{})
	before := ctx.Stats.LPs
	p := UnitBox(2)
	ctx.Maximize(Vector{1, 0}, p.Constraints())
	ctx.FeasiblePoint(p.Constraints(), 2)
	if got := ctx.Stats.LPs - before; got != 2 {
		t.Errorf("LP counter advanced by %d, want 2", got)
	}
}

// TestMaximizeRandomBoxes cross-checks the simplex against the closed-form
// solution for random boxes: max c·x over a box picks per-coordinate
// bounds by the sign of c.
func TestMaximizeRandomBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := NewSolver(Config{})
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(4)
		lo, hi, c := NewVector(dim), NewVector(dim), NewVector(dim)
		for i := 0; i < dim; i++ {
			a, b := rng.Float64()*20-10, rng.Float64()*20-10
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
			c[i] = rng.Float64()*10 - 5
		}
		want := 0.0
		for i := 0; i < dim; i++ {
			if c[i] >= 0 {
				want += c[i] * hi[i]
			} else {
				want += c[i] * lo[i]
			}
		}
		res := ctx.Maximize(c, Box(lo, hi).Constraints())
		if res.Status != LPOptimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		if !almostEqual(res.Value, want, 1e-6*(1+math.Abs(want))) {
			t.Fatalf("trial %d: value %v, want %v", trial, res.Value, want)
		}
	}
}

// TestMaximizeRandomFeasibility property: for random constraint sets that
// contain a known point, the LP must report a feasible outcome and any
// reported optimum must satisfy the constraints.
func TestMaximizeRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := NewSolver(Config{})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(3)
		x0 := NewVector(dim)
		for i := range x0 {
			x0[i] = r.Float64()*4 - 2
		}
		m := 1 + r.Intn(8)
		hs := make([]Halfspace, 0, m+2*dim)
		for k := 0; k < m; k++ {
			w := NewVector(dim)
			for i := range w {
				w[i] = r.Float64()*2 - 1
			}
			slack := r.Float64() * 3
			hs = append(hs, Halfspace{W: w, B: w.Dot(x0) + slack})
		}
		// Bound the region so the LP is bounded.
		for i := 0; i < dim; i++ {
			w := NewVector(dim)
			w[i] = 1
			hs = append(hs, Halfspace{W: w, B: x0[i] + 10})
			wn := NewVector(dim)
			wn[i] = -1
			hs = append(hs, Halfspace{W: wn, B: -(x0[i] - 10)})
		}
		obj := NewVector(dim)
		for i := range obj {
			obj[i] = r.Float64()*2 - 1
		}
		res := ctx.Maximize(obj, hs)
		if res.Status != LPOptimal {
			return false
		}
		if res.Value < obj.Dot(x0)-1e-6 {
			return false // optimum must be at least as good as x0
		}
		for _, h := range hs {
			if !h.Contains(res.X, 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
