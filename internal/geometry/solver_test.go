package geometry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestForkIndependence: a fork shares the configuration but starts with
// zero counters and its own scratch, and solving on the fork leaves the
// parent's counters untouched.
func TestForkIndependence(t *testing.T) {
	parent := NewSolver(Config{Eps: 1e-10, RadiusTol: 1e-6, MaxSimplexIter: 123})
	parent.Maximize(Vector{1}, Interval(0, 1).Constraints())
	before := parent.Stats

	f := parent.Fork()
	if f.Config != parent.Config {
		t.Errorf("fork config = %+v, parent %+v", f.Config, parent.Config)
	}
	if f.Stats != (Stats{}) {
		t.Errorf("fork starts with nonzero stats: %+v", f.Stats)
	}
	f.Maximize(Vector{1, 0}, UnitBox(2).Constraints())
	if parent.Stats != before {
		t.Errorf("solving on the fork changed parent stats: %+v -> %+v", before, parent.Stats)
	}
	if f.Stats.LPs != 1 {
		t.Errorf("fork LPs = %d, want 1", f.Stats.LPs)
	}
}

// TestStatsAddSub: merging per-worker counters is plain field-wise
// integer arithmetic.
func TestStatsAddSub(t *testing.T) {
	a := Stats{LPs: 3, LPIterations: 10, FastPathLPs: 1, RegionDiffs: 2, ConvexityChecks: 4}
	b := Stats{LPs: 5, LPIterations: 7, FastPathLPs: 2, RegionDiffs: 1, ConvexityChecks: 6}
	sum := a
	sum.Add(b)
	want := Stats{LPs: 8, LPIterations: 17, FastPathLPs: 3, RegionDiffs: 3, ConvexityChecks: 10}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
	sum.Sub(b)
	if sum != a {
		t.Errorf("Sub = %+v, want %+v", sum, a)
	}
}

// TestConcurrentChebyshevMemo: many solvers racing on shared polytopes
// must agree on the memoized values and solve each polytope's LP
// exactly once in total. Run with -race to exercise the memo's
// synchronization.
func TestConcurrentChebyshevMemo(t *testing.T) {
	const nPolys, nWorkers = 40, 8
	base := NewSolver(Config{})
	polys := make([]*Polytope, nPolys)
	for i := range polys {
		// Triangles (non-axis rows) so every solve takes the simplex.
		f := 1 + float64(i)/nPolys
		polys[i] = UnitBox(2).With(Halfspace{W: Vector{f, 1}, B: f})
	}
	solvers := make([]*Solver, nWorkers)
	for i := range solvers {
		solvers[i] = base.Fork()
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(s *Solver) {
			defer wg.Done()
			for _, p := range polys {
				s.Chebyshev(p)
			}
		}(solvers[w])
	}
	wg.Wait()

	var merged Stats
	for _, s := range solvers {
		merged.Add(s.Stats)
	}
	if merged.LPs != nPolys {
		t.Errorf("merged LPs = %d, want exactly one per polytope (%d)", merged.LPs, nPolys)
	}
	// Memo hits return identical values on every solver.
	check := base.Fork()
	for i, p := range polys {
		c, r, ok := check.Chebyshev(p)
		if !ok || r <= 0 {
			t.Fatalf("polytope %d: ok=%v r=%v", i, ok, r)
		}
		if !p.ContainsPoint(c, 1e-9) {
			t.Errorf("polytope %d: memoized center %v outside polytope", i, c)
		}
	}
	if check.Stats.LPs != 0 {
		t.Errorf("memo hits solved %d LPs, want 0", check.Stats.LPs)
	}
}

// TestScreenAgreesWithTableauOnTinyWeights: rows with weight norms at
// or below the solver tolerance are trivial (or degenerate-infeasible)
// for the tableau; the interval fast paths must not derive hard bounds
// from them. Regression test: a sub-Eps row like 1e-10*x <= -1e-10
// once made the interval screen report infeasible for a system phase 1
// accepts.
func TestScreenAgreesWithTableauOnTinyWeights(t *testing.T) {
	s := NewSolver(Config{})
	p := &Polytope{dim: 2, hs: []Halfspace{
		{W: Vector{1e-10, 0}, B: -1e-10}, // trivial for the tableau (|W| <= Eps, B >= -Eps)
		{W: Vector{-1, 0}, B: -2},        // x0 >= 2
	}}
	if res := s.FeasiblePoint(p.hs, 2); res.Status != LPOptimal {
		t.Fatalf("FeasiblePoint status = %v, want optimal", res.Status)
	}
	if res := s.Maximize(Vector{-1, 0}, p.hs); res.Status != LPOptimal || math.Abs(res.Value+2) > 1e-7 {
		t.Fatalf("Maximize = %v value %v, want optimal -2", res.Status, res.Value)
	}
	// The memoized Chebyshev must also see the system as feasible.
	if _, _, ok := s.Chebyshev(p); !ok {
		t.Fatal("Chebyshev reported empty for a feasible system")
	}
	// A degenerate-infeasible row must still make everything empty.
	bad := &Polytope{dim: 2, hs: []Halfspace{{W: Vector{1e-10, 0}, B: -1}}}
	if _, _, ok := s.Chebyshev(bad); ok {
		t.Fatal("Chebyshev reported non-empty for 0·x <= -1")
	}
	if res := s.Maximize(Vector{1, 0}, bad.hs); res.Status != LPInfeasible {
		t.Fatalf("Maximize status = %v for 0·x <= -1, want infeasible", res.Status)
	}
}

// TestContainsConservativeOnMaxIter: an iteration-capped feasibility
// solve must not be treated as emptiness — Contains historically
// returned false (not contained) in that case, never true.
func TestContainsConservativeOnMaxIter(t *testing.T) {
	s := NewSolver(Config{})
	s.MaxSimplexIter = 1 // hard cap = 50: force LPMaxIter on a nontrivial phase 1
	rng := rand.New(rand.NewSource(99))
	var q *Polytope
	for dim := 20; dim <= 60 && q == nil; dim += 10 {
		var hs []Halfspace
		for i := 0; i < 3*dim; i++ {
			w := NewVector(dim)
			for j := range w {
				w[j] = rng.Float64()*2 - 1
			}
			hs = append(hs, Halfspace{W: w, B: -rng.Float64()})
		}
		cand := &Polytope{dim: dim, hs: hs}
		probe := s.newSupportSolver(cand.hs, dim)
		probe.Empty()
		if probe.status == LPMaxIter {
			q = cand
		}
	}
	if q == nil {
		t.Fatal("could not construct an iteration-capped system")
	}
	if got := s.Contains(UnitBox(q.dim), q); got {
		t.Fatal("Contains = true on an iteration-capped solve; must stay conservative")
	}
}

// TestScreenSystemSoundness: the interval screen may only report
// infeasibility when the simplex agrees: whenever it fires, Maximize
// must find the system infeasible and Chebyshev must report it empty.
func TestScreenSystemSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewSolver(Config{})
	screened := 0
	for trial := 0; trial < 500; trial++ {
		dim := 1 + rng.Intn(3)
		lo, hi := NewVector(dim), NewVector(dim)
		for i := 0; i < dim; i++ {
			a, b := rng.Float64()*4-2, rng.Float64()*4-2
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		p := Box(lo, hi)
		for k := rng.Intn(4); k > 0; k-- {
			w := NewVector(dim)
			for i := range w {
				w[i] = rng.Float64()*2 - 1
			}
			p = p.With(Halfspace{W: w, B: rng.Float64()*2 - 0.7})
		}
		obj := NewVector(dim)
		for i := range obj {
			obj[i] = rng.Float64()*2 - 1
		}
		if _, _, infeasible := s.screenSystem(p.Constraints(), dim); !infeasible {
			continue
		}
		screened++
		if res := s.Maximize(obj, p.Constraints()); res.Status != LPInfeasible {
			t.Fatalf("trial %d: screen reported infeasible, simplex %v on %v", trial, res.Status, p)
		}
		if _, _, ok := s.Chebyshev(p); ok {
			t.Fatalf("trial %d: screen reported infeasible, Chebyshev non-empty on %v", trial, p)
		}
	}
	if screened == 0 {
		t.Fatal("the screen fired on no random system; the test checked nothing")
	}
}

// TestSupportSolverMatchesSupportValue: repeated queries against one
// snapshotted basis must reproduce the one-shot support values.
func TestSupportSolverMatchesSupportValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver(Config{})
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(3)
		p := UnitBox(dim)
		for k := rng.Intn(3); k > 0; k-- {
			w := NewVector(dim)
			for i := range w {
				w[i] = rng.Float64()*2 - 1
			}
			p = p.With(Halfspace{W: w, B: rng.Float64()})
		}
		ss := s.newSupportSolver(p.Constraints(), dim)
		for q := 0; q < 4; q++ {
			obj := NewVector(dim)
			for i := range obj {
				obj[i] = rng.Float64()*2 - 1
			}
			got, gotOK, gotUnb := ss.Value(obj)
			want, wantOK, wantUnb := s.SupportValue(p, obj)
			if gotOK != wantOK || gotUnb != wantUnb {
				t.Fatalf("trial %d query %d: (ok,unb)=(%v,%v), want (%v,%v)",
					trial, q, gotOK, gotUnb, wantOK, wantUnb)
			}
			if gotOK && math.Abs(got-want) > 1e-7 {
				t.Fatalf("trial %d query %d: value %v, want %v", trial, q, got, want)
			}
		}
	}
}

// TestChebyshevAxisAlignedMatchesLP: the closed-form ball of a box must
// match the simplex answer for the same geometry (forced through the
// LP by a redundant diagonal row, which disables the axis fast path
// but not the ball).
func TestChebyshevAxisAlignedMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(3)
		lo, hi := NewVector(dim), NewVector(dim)
		for i := 0; i < dim; i++ {
			a := rng.Float64()*4 - 2
			lo[i], hi[i] = a, a+0.1+rng.Float64()*3
		}
		sFast := NewSolver(Config{})
		cFast, rFast, okFast := sFast.Chebyshev(Box(lo, hi))
		if !okFast {
			t.Fatalf("trial %d: box reported empty", trial)
		}
		if sFast.Stats.FastPathLPs != 1 {
			t.Fatalf("trial %d: box did not take the closed form (fastLPs=%d)",
				trial, sFast.Stats.FastPathLPs)
		}
		// Same box plus a far-away diagonal row: same ball, LP path.
		w := NewVector(dim)
		for i := range w {
			w[i] = 1
		}
		slack := Halfspace{W: w, B: w.Dot(hi) + 100}
		sLP := NewSolver(Config{})
		_, rLP, okLP := sLP.Chebyshev(Box(lo, hi).With(slack))
		if !okLP {
			t.Fatalf("trial %d: LP box reported empty", trial)
		}
		if math.Abs(rFast-rLP) > 1e-7*(1+math.Abs(rLP)) {
			t.Fatalf("trial %d: closed-form radius %v, LP radius %v", trial, rFast, rLP)
		}
		if !Box(lo, hi).ContainsPoint(cFast, 1e-9) {
			t.Fatalf("trial %d: closed-form center %v outside box", trial, cFast)
		}
	}
}
