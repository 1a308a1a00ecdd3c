package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if !v.Add(w).Equal(Vector{5, 7, 9}, 0) {
		t.Error("Add wrong")
	}
	if !w.Sub(v).Equal(Vector{3, 3, 3}, 0) {
		t.Error("Sub wrong")
	}
	if !v.Scale(2).Equal(Vector{2, 4, 6}, 0) {
		t.Error("Scale wrong")
	}
	if v.NormInf() != 3 {
		t.Error("NormInf wrong")
	}
	if !almostEqual(Vector{3, 4}.Norm2(), 5, 1e-12) {
		t.Error("Norm2 wrong")
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases memory")
	}
	if !(Vector{0, 1e-12}).IsZero(1e-9) {
		t.Error("IsZero wrong")
	}
	if (Vector{0, 1e-3}).IsZero(1e-9) {
		t.Error("IsZero accepted non-zero")
	}
	if v.String() != "(1, 2, 3)" {
		t.Errorf("String = %q", v.String())
	}
}

// TestParetoFront: dominated items drop, incomparable items stay in
// input order, equal costs (within 1e-12) keep only the first, and an
// empty input gives nil.
func TestParetoFront(t *testing.T) {
	costs := []Vector{
		{2, 2},         // 0: dominated by 1
		{1, 2},         // 1
		{2, 1},         // 2
		{1, 2 + 1e-13}, // 3: equal to 1 within tolerance, later: dropped
		{0, 3},         // 4
		{1, 2},         // 5: exact duplicate of 1: dropped
	}
	idx := []int{0, 1, 2, 3, 4, 5}
	got := ParetoFront(idx, func(i int) Vector { return costs[i] })
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("front %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("front %v, want %v", got, want)
		}
	}
	if front := ParetoFront(nil, func(v Vector) Vector { return v }); front != nil {
		t.Errorf("empty input gave %v, want nil", front)
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Dot did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestSolveLinearSystem(t *testing.T) {
	// 2x + y = 5, x - y = 1 => x = 2, y = 1.
	x, ok := SolveLinearSystem([][]float64{{2, 1}, {1, -1}}, []float64{5, 1})
	if !ok || !x.Equal(Vector{2, 1}, 1e-9) {
		t.Errorf("solution = %v ok=%v", x, ok)
	}
	// Singular system.
	if _, ok := SolveLinearSystem([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Error("singular system solved")
	}
	// Empty system.
	if _, ok := SolveLinearSystem(nil, nil); !ok {
		t.Error("empty system rejected")
	}
}

// TestSolveLinearSystemRoundTrip: random well-conditioned systems round
// trip A·x == b.
func TestSolveLinearSystemRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 1 + int(abs64(seed))%4
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64()*4 - 2
			}
			a[i][i] += 5 // diagonally dominant => invertible
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*4 - 2
		}
		x, ok := SolveLinearSystem(a, b)
		if !ok {
			return false
		}
		for i := range a {
			s := 0.0
			for j := range a[i] {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHalfspaceBasics(t *testing.T) {
	h := Halfspace{W: Vector{2, 0}, B: 4}
	if !h.Contains(Vector{1, 7}, 0) || h.Contains(Vector{3, 0}, 0) {
		t.Error("Contains wrong")
	}
	f := h.Flip()
	if f.Contains(Vector{1, 0}, 0) || !f.Contains(Vector{3, 0}, 0) {
		t.Error("Flip wrong")
	}
	n := h.Normalize()
	if n.W.NormInf() != 1 || n.B != 2 {
		t.Errorf("Normalize = %v", n)
	}
	if h.Dim() != 2 {
		t.Error("Dim wrong")
	}
	if !(Halfspace{W: Vector{0, 0}, B: 1}).IsTrivial(1e-9) {
		t.Error("IsTrivial wrong")
	}
	if !(Halfspace{W: Vector{0, 0}, B: -1}).IsInfeasible(1e-9) {
		t.Error("IsInfeasible wrong")
	}
	if got := h.String(); got != "2*x1 <= 4" {
		t.Errorf("String = %q", got)
	}
	neg := Halfspace{W: Vector{-1, 1}, B: 0}
	if got := neg.String(); got != "-x1 + x2 <= 0" {
		t.Errorf("String = %q", got)
	}
	zero := Halfspace{W: Vector{0, 0}, B: 3}
	if got := zero.String(); got != "0 <= 3" {
		t.Errorf("String = %q", got)
	}
}

func TestLPStatusString(t *testing.T) {
	for st, want := range map[LPStatus]string{
		LPOptimal:    "optimal",
		LPInfeasible: "infeasible",
		LPUnbounded:  "unbounded",
		LPMaxIter:    "max-iterations",
		LPStatus(99): "unknown",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestStatsAddString(t *testing.T) {
	a := Stats{LPs: 1, LPIterations: 2, RegionDiffs: 3, ConvexityChecks: 4}
	b := Stats{LPs: 10, LPIterations: 20, RegionDiffs: 30, ConvexityChecks: 40}
	a.Add(b)
	if a.LPs != 11 || a.LPIterations != 22 || a.RegionDiffs != 33 || a.ConvexityChecks != 44 {
		t.Errorf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func newTestRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// testRand is a tiny deterministic generator for property tests that
// need per-seed randomness without importing math/rand in helpers.
type testRand struct{ state uint64 }

func (r *testRand) Float64() float64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return float64(r.state>>11) / (1 << 53)
}
