package mpq_test

import (
	"testing"

	"mpq"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: generate a workload, build the cloud model, optimize, inspect
// the Pareto plan set, and select a plan at run time.
func TestFacadeEndToEnd(t *testing.T) {
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables: 4, Params: 1, Shape: mpq.Chain, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := mpq.NewSolver(mpq.SolverConfig{})
	model, err := mpq.NewCloudModel(schema, mpq.DefaultCloudConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := mpq.DefaultOptions()
	opts.Context = ctx
	res, err := mpq.Optimize(schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("empty Pareto plan set")
	}
	if res.Stats.Geometry.LPs == 0 || res.Stats.CreatedPlans == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	// Every kept plan joins all tables.
	for _, info := range res.Plans {
		if info.Plan.Set != schema.AllTables() {
			t.Errorf("plan %v does not join all tables", info.Plan)
		}
		if info.RR == nil {
			t.Errorf("plan %v missing relevance region", info.Plan)
		}
	}
	// Run-time plan selection at a concrete parameter value.
	algebra := mpq.NewPWLAlgebra(mpq.NewSolver(mpq.SolverConfig{}), 2)
	front := res.ParetoFrontAt(algebra, mpq.Vector{0.3})
	if len(front) == 0 {
		t.Fatal("empty Pareto front at x=0.3")
	}
}

// TestFacadeStaticModel builds plan alternatives by hand using the cost
// constructors.
func TestFacadeStaticModel(t *testing.T) {
	space := mpq.Interval(0, 1)
	alts := []mpq.Alternative{
		{Op: "cheap", Cost: mpq.MultiCost(
			mpq.LinearCost(space, mpq.Vector{2}, 0),
			mpq.ConstantCost(space, 1),
		)},
		{Op: "fast", Cost: mpq.MultiCost(
			mpq.ConstantCost(space, 0.5),
			mpq.ConstantCost(space, 4),
		)},
	}
	schema := mpq.StaticSchema(1, []float64{0}, []float64{1})
	model := &mpq.StaticModel{ParamSpace: space, Metrics: []string{"time", "fees"}, Plans: alts}
	res, err := mpq.Optimize(schema, model, mpq.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 2 {
		t.Fatalf("plan set size = %d, want 2 (tradeoff plans)", len(res.Plans))
	}
}

// TestFacadeEnumerate cross-checks the exhaustive enumeration export.
func TestFacadeEnumerate(t *testing.T) {
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables: 3, Params: 1, Shape: mpq.Star, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := mpq.NewSolver(mpq.SolverConfig{})
	model, err := mpq.NewCloudModel(schema, mpq.DefaultCloudConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	algebra := mpq.NewPWLAlgebra(ctx, 2)
	all := mpq.EnumerateAllPlans(schema, model, algebra, true)
	if len(all) == 0 {
		t.Fatal("no plans enumerated")
	}
	opts := mpq.DefaultOptions()
	res, err := mpq.Optimize(schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) > len(all) {
		t.Errorf("Pareto set (%d) larger than full plan space (%d)", len(res.Plans), len(all))
	}
}
