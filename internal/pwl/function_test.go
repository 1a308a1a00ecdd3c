package pwl

import (
	"math"
	"testing"

	"mpq/internal/geometry"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func unitInterval() *geometry.Polytope { return geometry.Interval(0, 1) }

func TestConstantEval(t *testing.T) {
	f := Constant(unitInterval(), 3.5)
	v, ok := f.Eval(geometry.Vector{0.4})
	if !ok || !almostEqual(v, 3.5, 1e-12) {
		t.Errorf("Eval = %v ok=%v, want 3.5", v, ok)
	}
}

func TestLinearEval(t *testing.T) {
	f := Linear(unitInterval(), geometry.Vector{2}, 1)
	v, ok := f.Eval(geometry.Vector{0.25})
	if !ok || !almostEqual(v, 1.5, 1e-12) {
		t.Errorf("Eval = %v ok=%v, want 1.5", v, ok)
	}
}

func TestPiecewiseEvalSelectsPiece(t *testing.T) {
	// f(x) = x on [0, 0.5], f(x) = 1 - x on [0.5, 1].
	f := NewFunction(
		Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{1}, B: 0},
		Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{-1}, B: 1},
	)
	cases := []struct{ x, want float64 }{
		{0.2, 0.2}, {0.5, 0.5}, {0.8, 0.2}, {1, 0},
	}
	for _, c := range cases {
		v, ok := f.Eval(geometry.Vector{c.x})
		if !ok || !almostEqual(v, c.want, 1e-9) {
			t.Errorf("Eval(%v) = %v ok=%v, want %v", c.x, v, ok, c.want)
		}
	}
}

func TestEvalOutsideDomainFallsBack(t *testing.T) {
	f := Linear(unitInterval(), geometry.Vector{1}, 0)
	v, ok := f.Eval(geometry.Vector{2})
	if ok {
		t.Error("Eval outside domain reported ok")
	}
	if !almostEqual(v, 2, 1e-9) {
		t.Errorf("fallback value = %v, want extrapolated 2", v)
	}
}

func TestMultiEval(t *testing.T) {
	dom := unitInterval()
	m := NewMulti(
		Linear(dom, geometry.Vector{1}, 0),
		Constant(dom, 2),
	)
	v, ok := m.Eval(geometry.Vector{0.5})
	if !ok || !v.Equal(geometry.Vector{0.5, 2}, 1e-12) {
		t.Errorf("Eval = %v ok=%v, want (0.5, 2)", v, ok)
	}
	if m.NumMetrics() != 2 || m.Dim() != 1 || m.TotalPieces() != 2 {
		t.Errorf("metadata wrong: metrics=%d dim=%d pieces=%d", m.NumMetrics(), m.Dim(), m.TotalPieces())
	}
}

func TestFigure11Addition(t *testing.T) {
	// Figure 11 of the paper: two single-objective cost functions over a
	// two-dimensional parameter space; weight vectors are added per
	// linear region. Function 1 has three linear regions with weights
	// (1,2), (3,2), (2,4); function 2 has two regions with weights
	// (0,2), (1,3). We reconstruct a compatible geometry: function 1
	// splits the unit square vertically at x1=1/3 and the right part
	// horizontally at x2=1/2; function 2 splits vertically at x1=2/3.
	ctx := geometry.NewSolver(geometry.Config{})
	sq := geometry.UnitBox(2)
	f := NewFunction(
		Piece{Region: sq.With(geometry.Halfspace{W: geometry.Vector{1, 0}, B: 1.0 / 3}), W: geometry.Vector{1, 2}, B: 0},
		Piece{Region: sq.With(
			geometry.Halfspace{W: geometry.Vector{-1, 0}, B: -1.0 / 3},
			geometry.Halfspace{W: geometry.Vector{0, 1}, B: 0.5},
		), W: geometry.Vector{3, 2}, B: 0},
		Piece{Region: sq.With(
			geometry.Halfspace{W: geometry.Vector{-1, 0}, B: -1.0 / 3},
			geometry.Halfspace{W: geometry.Vector{0, -1}, B: -0.5},
		), W: geometry.Vector{2, 4}, B: 0},
	)
	g := NewFunction(
		Piece{Region: sq.With(geometry.Halfspace{W: geometry.Vector{1, 0}, B: 2.0 / 3}), W: geometry.Vector{0, 2}, B: 0},
		Piece{Region: sq.With(geometry.Halfspace{W: geometry.Vector{-1, 0}, B: -2.0 / 3}), W: geometry.Vector{1, 3}, B: 0},
	)
	sum := Add(ctx, f, g)
	// Expected weights of the sum (Figure 11 right): (1,4), (3,4),
	// (2,6) on the left of x1=2/3 and (4,5), (3,7) on the right.
	wantWeights := map[[2]float64]bool{
		{1, 4}: true, {3, 4}: true, {2, 6}: true, {4, 5}: true, {3, 7}: true,
	}
	if sum.NumPieces() != 5 {
		t.Fatalf("sum has %d pieces, want 5: %v", sum.NumPieces(), sum)
	}
	for _, p := range sum.Pieces() {
		k := [2]float64{p.W[0], p.W[1]}
		if !wantWeights[k] {
			t.Errorf("unexpected weight vector %v in sum", p.W)
		}
	}
	// Pointwise check on a sample grid.
	for _, x := range geometry.SamplePointsInBox(geometry.Vector{0, 0}, geometry.Vector{1, 1}, 7, 100) {
		fv, _ := f.Eval(x)
		gv, _ := g.Eval(x)
		sv, _ := sum.Eval(x)
		if !almostEqual(sv, fv+gv, 1e-9) {
			t.Errorf("sum(%v) = %v, want %v", x, sv, fv+gv)
		}
	}
}

func TestNewFunctionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFunction with no pieces did not panic")
		}
	}()
	NewFunction()
}

func TestNewMultiPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMulti with mismatched dims did not panic")
		}
	}()
	NewMulti(Constant(geometry.Interval(0, 1), 1), Constant(geometry.UnitBox(2), 1))
}
