package core

import (
	"context"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// staticOptimize runs RRPA on a set of alternative plans for one result.
func staticOptimize(t *testing.T, space *geometry.Polytope, metrics int, alts []Alternative) *Result {
	t.Helper()
	lo, hi, ok := geometry.NewSolver(geometry.Config{}).BoundingBox(space)
	if !ok {
		t.Fatal("static space must be bounded")
	}
	schema := StaticSchema(space.Dim(), lo, hi)
	model := &StaticModel{ParamSpace: space, Metrics: metricNames(metrics), Plans: alts}
	res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return res
}

func metricNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

func planNames(res *Result) map[string]*PlanInfo {
	out := make(map[string]*PlanInfo, len(res.Plans))
	for _, p := range res.Plans {
		out[p.Plan.Op] = p
	}
	return out
}

// TestExample2 reproduces Example 2 of the paper: one selectivity
// parameter x in [0,1], metrics {time, fees};
// p1 = (2x, 3), p2 = p3 = (0.5+x, 2). Expected: p2 and p3 mutually
// dominate, so exactly one survives with the full parameter space as
// relevance region; p1 survives with relevance region [0, 0.5].
func TestExample2(t *testing.T) {
	space := geometry.Interval(0, 1)
	mk := func(timeW, timeB, fees float64) Cost {
		return pwl.NewMulti(
			pwl.Linear(space, geometry.Vector{timeW}, timeB),
			pwl.Constant(space, fees),
		)
	}
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "p1", Cost: mk(2, 0, 3)},
		{Op: "p2", Cost: mk(1, 0.5, 2)},
		{Op: "p3", Cost: mk(1, 0.5, 2)},
	})
	if len(res.Plans) != 2 {
		t.Fatalf("PPS size = %d, want 2 ({p1, p2} or {p1, p3}): %v", len(res.Plans), res.Plans)
	}
	byName := planNames(res)
	p1, ok := byName["p1"]
	if !ok {
		t.Fatal("p1 missing from PPS")
	}
	if _, ok := byName["p2"]; !ok {
		if _, ok := byName["p3"]; !ok {
			t.Fatal("neither p2 nor p3 in PPS")
		}
	}
	// RR of p1 must be [0, 0.5]: relevant at 0.2, cut out at 0.8.
	if !p1.RR.Contains(geometry.Vector{0.2}, 1e-9) {
		t.Error("p1 should be relevant at x=0.2")
	}
	if p1.RR.Contains(geometry.Vector{0.8}, 1e-9) {
		t.Error("p1 should not be relevant at x=0.8")
	}
	// Run-time plan selection: at x=0.2 both plans are Pareto-optimal
	// (p1 = (0.4, 3) vs p2 = (0.7, 2)); at x=0.8 only p2 (p1 = (1.6, 3)
	// vs p2 = (1.3, 2) dominates).
	ctx := geometry.NewSolver(geometry.Config{})
	algebra := NewPWLAlgebra(ctx, 2)
	front := res.ParetoFrontAt(algebra, geometry.Vector{0.2})
	if len(front) != 2 {
		t.Errorf("front at 0.2 has %d plans, want 2", len(front))
	}
	front = res.ParetoFrontAt(algebra, geometry.Vector{0.8})
	if len(front) != 1 || front[0].Plan.Op == "p1" {
		t.Errorf("front at 0.8 = %v, want just the cheap plan", front)
	}
}

// TestFigure4 reproduces the counter-example of Figure 4 / statement M1:
// plan 2 is Pareto-optimal for small and large parameter values but not
// in between, so its relevance region is disconnected — impossible in
// single-metric parametric query optimization (statement S1).
// Construction: domain [0,3]; c(p1) = (2-x, x); c(p2) = (1, 2).
// p1 dominates p2 exactly on [1, 2].
func TestFigure4(t *testing.T) {
	space := geometry.Interval(0, 3)
	p1 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{-1}, 2),
		pwl.Linear(space, geometry.Vector{1}, 0),
	)
	p2 := pwl.NewMulti(
		pwl.Constant(space, 1),
		pwl.Constant(space, 2),
	)
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "p1", Cost: p1},
		{Op: "p2", Cost: p2},
	})
	if len(res.Plans) != 2 {
		t.Fatalf("PPS size = %d, want 2", len(res.Plans))
	}
	rr2 := planNames(res)["p2"].RR
	// Pareto at the edges, dominated in the middle.
	for _, x := range []float64{0.5, 2.5} {
		if !rr2.Contains(geometry.Vector{x}, 1e-9) {
			t.Errorf("p2 should be relevant at x=%v", x)
		}
	}
	if rr2.Contains(geometry.Vector{1.5}, 1e-9) {
		t.Error("p2 should be dominated at x=1.5 (M1: not Pareto between two Pareto points)")
	}
	// The relevance region of p2 is disconnected: two full-dimensional
	// pieces (first half of statement M2).
	ctx := geometry.NewSolver(geometry.Config{})
	if got := len(rr2.Pieces(ctx)); got != 2 {
		t.Errorf("RR(p2) has %d pieces, want 2 (disconnected)", got)
	}
	// p1 is Pareto everywhere.
	rr1 := planNames(res)["p1"].RR
	for _, x := range []float64{0.1, 1.5, 2.9} {
		if !rr1.Contains(geometry.Vector{x}, 1e-9) {
			t.Errorf("p1 should be relevant at x=%v", x)
		}
	}
}

// TestFigure5 reproduces Figure 5 / statement M2: with the
// two-dimensional parameter space [0,2]^2, c(p1)(x) = (x1, x2) and
// c(p2) = (1, 1), the region where p1 dominates p2 is the unit box, so
// the Pareto region of p2 (its complement) is not convex.
func TestFigure5(t *testing.T) {
	space := geometry.Box(geometry.Vector{0, 0}, geometry.Vector{2, 2})
	p1 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{1, 0}, 0),
		pwl.Linear(space, geometry.Vector{0, 1}, 0),
	)
	p2 := pwl.NewMulti(
		pwl.Constant(space, 1),
		pwl.Constant(space, 1),
	)
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "p1", Cost: p1},
		{Op: "p2", Cost: p2},
	})
	if len(res.Plans) != 2 {
		t.Fatalf("PPS size = %d, want 2", len(res.Plans))
	}
	rr2 := planNames(res)["p2"].RR
	inside := geometry.Vector{0.5, 0.5}  // p1 = (0.5, 0.5) dominates
	corner1 := geometry.Vector{1.5, 0.5} // p1 worse on metric 1
	corner2 := geometry.Vector{0.5, 1.5} // p1 worse on metric 2
	if rr2.Contains(inside, 1e-9) {
		t.Error("p2 should be dominated inside the unit box")
	}
	if !rr2.Contains(corner1, 1e-9) || !rr2.Contains(corner2, 1e-9) {
		t.Error("p2 should be relevant outside the unit box")
	}
	// Non-convexity: the midpoint of two relevant points is dominated.
	mid := corner1.Add(corner2).Scale(0.5) // (1,1): tie with p1 at (1,1)?
	_ = mid
	// Use strictly interior witnesses: (1.5,0.5) and (0.5,1.5) are in
	// the RR but (1.0-eps... ) their segment passes through the
	// dominated box corner region: point (0.9, 0.9) lies on the segment
	// x1+x2=2? No — use (0.75, 0.75)-line: take midpoint (1,1): it is
	// the box corner where costs tie; step slightly inside instead.
	notConvexWitness := geometry.Vector{0.95, 0.95}
	if rr2.Contains(notConvexWitness, 1e-9) {
		t.Error("p2 should be dominated at (0.95, 0.95): Pareto region is not convex")
	}
}

// TestFigure6 reproduces Figure 6 / statement M3b: plan 3 is
// Pareto-optimal strictly inside (0.5, 1.5) but not on [0, 0.5] or
// [1.5, 2]; plans 1 and 2 are Pareto everywhere. Construction on [0,2]:
// c(p1) = (x, 2-x), c(p2) = (2-x, x),
// c(p3) = (1, max(2.5-2x, 1, 2x-1.5)).
func TestFigure6(t *testing.T) {
	space := geometry.Interval(0, 2)
	p1 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{1}, 0),
		pwl.Linear(space, geometry.Vector{-1}, 2),
	)
	p2 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{-1}, 2),
		pwl.Linear(space, geometry.Vector{1}, 0),
	)
	p3MetricB := pwl.NewFunction(
		pwl.Piece{Region: geometry.Interval(0, 0.75), W: geometry.Vector{-2}, B: 2.5},
		pwl.Piece{Region: geometry.Interval(0.75, 1.25), W: geometry.Vector{0}, B: 1},
		pwl.Piece{Region: geometry.Interval(1.25, 2), W: geometry.Vector{2}, B: -1.5},
	)
	p3 := pwl.NewMulti(pwl.Constant(space, 1), p3MetricB)
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "p1", Cost: p1},
		{Op: "p2", Cost: p2},
		{Op: "p3", Cost: p3},
	})
	if len(res.Plans) != 3 {
		t.Fatalf("PPS size = %d, want 3", len(res.Plans))
	}
	byName := planNames(res)
	rr3 := byName["p3"].RR
	if !rr3.Contains(geometry.Vector{1.0}, 1e-9) {
		t.Error("p3 should be relevant at x=1 (M3b: Pareto inside the polytope)")
	}
	if rr3.Contains(geometry.Vector{0.25}, 1e-9) {
		t.Error("p3 should be dominated at x=0.25")
	}
	if rr3.Contains(geometry.Vector{1.75}, 1e-9) {
		t.Error("p3 should be dominated at x=1.75")
	}
	// p1 and p2 relevant across the whole domain.
	for _, name := range []string{"p1", "p2"} {
		rr := byName[name].RR
		for _, x := range []float64{0.1, 1.0, 1.9} {
			if !rr.Contains(geometry.Vector{x}, 1e-9) {
				t.Errorf("%s should be relevant at x=%v", name, x)
			}
		}
	}
	// M3a/M3b at the vertex level: at the domain vertices x=0 and x=2
	// the Pareto front excludes p3, yet p3 is Pareto at an interior
	// point (x=0.9, where p3 = (1,1) is incomparable to p1 = (0.9, 1.1)
	// and p2 = (1.1, 0.9); at x=1 exactly all three plans tie).
	ctx := geometry.NewSolver(geometry.Config{})
	algebra := NewPWLAlgebra(ctx, 2)
	for _, x := range []float64{0, 2} {
		for _, info := range res.ParetoFrontAt(algebra, geometry.Vector{x}) {
			if info.Plan.Op == "p3" {
				t.Errorf("p3 in Pareto front at vertex x=%v", x)
			}
		}
	}
	foundP3 := false
	for _, info := range res.ParetoFrontAt(algebra, geometry.Vector{0.9}) {
		if info.Plan.Op == "p3" {
			foundP3 = true
		}
	}
	if !foundP3 {
		t.Error("p3 missing from Pareto front at x=0.9")
	}
}

// TestStaticIdenticalPlansKeepOne: mutual dominance must keep exactly
// one of a group of identical plans, regardless of group size.
func TestStaticIdenticalPlansKeepOne(t *testing.T) {
	space := geometry.Interval(0, 1)
	alts := make([]Alternative, 0, 5)
	for i := 0; i < 5; i++ {
		alts = append(alts, Alternative{
			Op: string(rune('a' + i)),
			Cost: pwl.NewMulti(
				pwl.Linear(space, geometry.Vector{1}, 1),
				pwl.Constant(space, 2),
			),
		})
	}
	res := staticOptimize(t, space, 2, alts)
	if len(res.Plans) != 1 {
		t.Fatalf("PPS size = %d, want 1", len(res.Plans))
	}
}

// TestStaticDominatedChainPrunesAll: strictly increasing costs leave
// only the first plan.
func TestStaticDominatedChainPrunesAll(t *testing.T) {
	space := geometry.Interval(0, 1)
	var alts []Alternative
	for i := 0; i < 6; i++ {
		alts = append(alts, Alternative{
			Op: string(rune('a' + i)),
			Cost: pwl.NewMulti(
				pwl.Linear(space, geometry.Vector{1}, float64(i)),
				pwl.Constant(space, float64(1+i)),
			),
		})
	}
	res := staticOptimize(t, space, 2, alts)
	if len(res.Plans) != 1 || res.Plans[0].Plan.Op != "a" {
		t.Fatalf("PPS = %v, want just plan a", res.Plans)
	}
	if res.Stats.PrunedPlans != 5 {
		t.Errorf("pruned = %d, want 5", res.Stats.PrunedPlans)
	}
	if res.Stats.CreatedPlans != 6 {
		t.Errorf("created = %d, want 6", res.Stats.CreatedPlans)
	}
}

func TestStatsPopulated(t *testing.T) {
	space := geometry.Interval(0, 1)
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "a", Cost: pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 0), pwl.Constant(space, 2))},
		{Op: "b", Cost: pwl.NewMulti(pwl.Linear(space, geometry.Vector{-1}, 1), pwl.Constant(space, 1))},
	})
	if res.Stats.FinalPlans != len(res.Plans) {
		t.Errorf("FinalPlans = %d, want %d", res.Stats.FinalPlans, len(res.Plans))
	}
	if res.Stats.Geometry.LPs <= 0 {
		t.Error("LP counter not populated")
	}
	if res.Stats.Duration <= 0 {
		t.Error("duration not populated")
	}
	if res.Stats.MaxPlansPerSet < 1 {
		t.Error("MaxPlansPerSet not populated")
	}
}

func TestUnsatisfiableSchema(t *testing.T) {
	schema := &catalog.Schema{} // no tables
	model := &StaticModel{ParamSpace: geometry.Interval(0, 1), Metrics: []string{"t"}}
	if _, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions()); err == nil {
		t.Error("expected error for empty schema")
	}
}
