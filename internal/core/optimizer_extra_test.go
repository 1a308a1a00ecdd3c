package core

import (
	"context"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// twoTableModel is a minimal cost model over two tables with one scan
// alternative each and one join operator, with configurable costs.
type twoTableModel struct {
	space     *geometry.Polytope
	scanCosts []*pwl.Multi
	joinCost  *pwl.Multi
}

func (m *twoTableModel) Space() *geometry.Polytope { return m.space }
func (m *twoTableModel) MetricNames() []string     { return []string{"time", "fees"} }
func (m *twoTableModel) ScanAlternatives(t catalog.TableID) []Alternative {
	return []Alternative{{Op: "scan", Cost: m.scanCosts[t]}}
}
func (m *twoTableModel) JoinAlternatives(left, right catalog.TableSet) []Alternative {
	return []Alternative{{Op: "join", Cost: m.joinCost}}
}

// TestDisconnectedGraphCartesianFallback: with no join edges at all, the
// optimizer must still produce plans via Cartesian products even with
// postponement enabled.
func TestDisconnectedGraphCartesianFallback(t *testing.T) {
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 10, TupleBytes: 10},
			{Name: "T2", Card: 20, TupleBytes: 10},
		},
		NumParams: 1,
	}
	space := geometry.Interval(0, 1)
	model := &twoTableModel{
		space: space,
		scanCosts: []*pwl.Multi{
			pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 1)),
			pwl.NewMulti(pwl.Constant(space, 2), pwl.Constant(space, 2)),
		},
		joinCost: pwl.NewMulti(pwl.Constant(space, 0.5), pwl.Constant(space, 0.5)),
	}
	opts := DefaultOptions()
	res, err := OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no plan for the disconnected query")
	}
	// Cost must be scan1 + scan2 + join on both metrics.
	algebra := NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
	c := algebra.Eval(res.Plans[0].Cost, geometry.Vector{0.5})
	if !c.Equal(geometry.Vector{3.5, 3.5}, 1e-9) {
		t.Errorf("cost = %v, want (3.5, 3.5)", c)
	}
}

// TestSingleTableQuery: optimization of a single table reduces to scan
// selection.
func TestSingleTableQuery(t *testing.T) {
	schema := &catalog.Schema{
		Tables:    []catalog.Table{{Name: "T1", Card: 10, TupleBytes: 10}},
		NumParams: 1,
	}
	space := geometry.Interval(0, 1)
	model := &StaticModel{
		ParamSpace: space,
		Metrics:    []string{"time", "fees"},
		Plans: []Alternative{
			{Op: "fast", Cost: pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 5))},
			{Op: "cheap", Cost: pwl.NewMulti(pwl.Constant(space, 5), pwl.Constant(space, 1))},
			{Op: "bad", Cost: pwl.NewMulti(pwl.Constant(space, 6), pwl.Constant(space, 6))},
		},
	}
	res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 2 {
		t.Fatalf("plan set size = %d, want 2", len(res.Plans))
	}
}

// TestMaxAccumulationThroughOptimizer: with AccumMax on the time metric
// (sub-plans executed in parallel), the accumulated plan time is the
// maximum of the children plus the join step, while fees stay additive —
// the accumulation variants called out in Sections 3 and 6.1.
func TestMaxAccumulationThroughOptimizer(t *testing.T) {
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 10, TupleBytes: 10},
			{Name: "T2", Card: 20, TupleBytes: 10},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 0.1}},
		NumParams: 1,
	}
	space := geometry.Interval(0, 1)
	// Child times: 3 and x+1 (crossing at x=2 — outside the domain, so
	// max = 3 everywhere... use x+2.5 to cross at 0.5).
	model := &twoTableModel{
		space: space,
		scanCosts: []*pwl.Multi{
			pwl.NewMulti(pwl.Constant(space, 3), pwl.Constant(space, 1)),
			pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 2.5), pwl.Constant(space, 2)),
		},
		joinCost: pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 0.5)),
	}
	ctx := geometry.NewSolver(geometry.Config{})
	algebra := &PWLAlgebra{Ctx: ctx, Modes: []pwl.AccumMode{pwl.AccumMax, pwl.AccumSum}, Compact: true}
	opts := DefaultOptions()
	opts.Context = ctx
	opts.Algebra = algebra
	res, err := OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("no plans")
	}
	for _, x := range []float64{0.1, 0.5, 0.9} {
		c := algebra.Eval(res.Plans[0].Cost, geometry.Vector{x})
		wantTime := 3.0
		if x+2.5 > 3 {
			wantTime = x + 2.5
		}
		wantTime++ // join step
		if !almostEqualF(c[0], wantTime, 1e-9) {
			t.Errorf("time at %v = %v, want %v (max accumulation)", x, c[0], wantTime)
		}
		if !almostEqualF(c[1], 3.5, 1e-9) {
			t.Errorf("fees at %v = %v, want 3.5 (sum accumulation)", x, c[1])
		}
	}
}

func almostEqualF(a, b, tol float64) bool {
	d := a - b
	return d <= tol && d >= -tol
}

// TestPruneInsertionOrderInvariance: the Pareto plan set must cover the
// same cost tradeoffs regardless of the order in which alternatives are
// inserted.
func TestPruneInsertionOrderInvariance(t *testing.T) {
	space := geometry.Interval(0, 1)
	mk := func(w, b, fees float64) Cost {
		return pwl.NewMulti(pwl.Linear(space, geometry.Vector{w}, b), pwl.Constant(space, fees))
	}
	alts := []Alternative{
		{Op: "a", Cost: mk(1, 0, 3)},
		{Op: "b", Cost: mk(-1, 1, 2)},
		{Op: "c", Cost: mk(0, 0.4, 4)},
		{Op: "d", Cost: mk(2, 0.1, 1)},
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var fronts []map[string]bool
	for _, perm := range perms {
		ordered := make([]Alternative, len(alts))
		for i, j := range perm {
			ordered[i] = alts[j]
		}
		schema := StaticSchema(1, []float64{0}, []float64{1})
		model := &StaticModel{ParamSpace: space, Metrics: []string{"t", "f"}, Plans: ordered}
		res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		algebra := NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
		// Record which plans are on the front at sample points.
		front := map[string]bool{}
		for _, xv := range []float64{0.1, 0.5, 0.9} {
			for _, info := range res.ParetoFrontAt(algebra, geometry.Vector{xv}) {
				front[info.Plan.Op] = true
			}
		}
		fronts = append(fronts, front)
	}
	for i := 1; i < len(fronts); i++ {
		if len(fronts[i]) != len(fronts[0]) {
			t.Errorf("front plan sets differ across insertion orders: %v vs %v", fronts[0], fronts[i])
		}
		for op := range fronts[0] {
			if !fronts[i][op] {
				t.Errorf("plan %s missing from front under permutation %d", op, i)
			}
		}
	}
}
