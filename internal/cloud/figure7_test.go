package cloud

import (
	"context"
	"math"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/geometry"
)

// TestFigure7PruningWithCloudModel reproduces Example 3 / Figure 7 on
// the actual cloud cost model: plans joining the same two tables with a
// single-node hash join vs a parallel hash join. Single-node plans
// dominate parallel plans for small selectivities (no shuffle overhead,
// small input), so pruning removes the parallel plans' relevance there;
// for large selectivities parallelization pays off in time while fees
// stay higher (Scenario 1 tradeoff).
func TestFigure7PruningWithCloudModel(t *testing.T) {
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 4e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 2e5, TupleBytes: 100},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 1e-6}},
		NumParams: 1,
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := NewModel(schema, DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Context = ctx
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string][]*core.PlanInfo{}
	for _, info := range res.Plans {
		byOp[info.Plan.Op] = append(byOp[info.Plan.Op], info)
	}
	if len(byOp[OpHashJoin]) == 0 {
		t.Fatal("no single-node hash plan in the Pareto set")
	}
	if len(byOp[OpParallelHash(8)]) == 0 {
		t.Fatal("no parallel hash plan in the Pareto set (expected a time/fees tradeoff)")
	}
	anyRelevant := func(op string, x float64) bool {
		for _, info := range byOp[op] {
			if info.RR.Contains(geometry.Vector{x}, 1e-9) {
				return true
			}
		}
		return false
	}
	// Interior low-selectivity point: parallel plans must be pruned —
	// single-node plans are both faster and cheaper there (Figure 7).
	if anyRelevant(OpParallelHash(8), 0.01) {
		t.Error("a parallel plan is relevant at selectivity 0.01 — single-node should dominate")
	}
	// High selectivity: parallelization pays off.
	if !anyRelevant(OpParallelHash(8), 0.95) {
		t.Error("no parallel plan relevant at selectivity 0.95")
	}
	// Some single-node plan stays relevant everywhere: it is always the
	// cheapest option.
	for _, x := range []float64{0.01, 0.5, 0.95} {
		if !anyRelevant(OpHashJoin, x) {
			t.Errorf("no single-node plan relevant at %v", x)
		}
	}
	// Cost shape: best parallel vs best single-node time/fees at both
	// ends.
	algebra := core.NewPWLAlgebra(ctx, 2)
	best := func(op string, x float64, metric int) float64 {
		v := math.Inf(1)
		for _, info := range byOp[op] {
			if c := algebra.Eval(info.Cost, geometry.Vector{x}); c[metric] < v {
				v = c[metric]
			}
		}
		return v
	}
	if best(OpParallelHash(8), 0.01, MetricTime) < best(OpHashJoin, 0.01, MetricTime) {
		t.Error("parallel beats single-node on time at low selectivity")
	}
	if best(OpParallelHash(8), 0.95, MetricTime) >= best(OpHashJoin, 0.95, MetricTime) {
		t.Error("parallel not faster than single-node at high selectivity")
	}
	for _, x := range []float64{0.01, 0.95} {
		if best(OpParallelHash(8), x, MetricFees) <= best(OpHashJoin, x, MetricFees) {
			t.Errorf("parallel fees not higher at %v (fees proportional to total work)", x)
		}
	}
}
