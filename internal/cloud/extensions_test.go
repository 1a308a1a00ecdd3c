package cloud

import (
	"context"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/geometry"
)

func extendedConfig() Config {
	cfg := DefaultConfig()
	cfg.EnableSortMerge = true
	cfg.EnableBroadcast = true
	return cfg
}

func bigSchema() *catalog.Schema {
	return &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 4e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 8e6, TupleBytes: 100},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 1e-7}},
		NumParams: 1,
	}
}

func TestExtendedOperatorsPresent(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(bigSchema(), extendedConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	ops := map[string]bool{}
	for _, j := range joins {
		ops[j.Op] = true
	}
	for _, want := range []string{OpHashJoin, OpParallelHash(8), OpSortMerge, OpBroadcast(8)} {
		if !ops[want] {
			t.Errorf("missing join operator %s (have %v)", want, ops)
		}
	}
	if len(joins) != 4 {
		t.Errorf("got %d join alternatives, want 4", len(joins))
	}
}

// TestBroadcastBeatsShuffleForSmallBuild: with a tiny build side and a
// huge probe side, broadcasting the build side avoids shuffling the
// probe side and must be faster than the partitioned parallel join.
func TestBroadcastBeatsShuffleForSmallBuild(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(bigSchema(), extendedConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	costs := map[string]*JoinCost{}
	for i := range joins {
		costs[joins[i].Op] = &joins[i]
	}
	// Small selectivity: build side (T1 filtered) is small.
	x := geometry.Vector{0.005}
	bc, _ := costs[OpBroadcast(8)].Cost.Eval(x)
	par, _ := costs[OpParallelHash(8)].Cost.Eval(x)
	if bc[MetricTime] >= par[MetricTime] {
		t.Errorf("broadcast (%v) not faster than shuffle (%v) for a small build side",
			bc[MetricTime], par[MetricTime])
	}
	// Large build side: broadcasting the whole thing loses.
	x = geometry.Vector{1}
	bc, _ = costs[OpBroadcast(8)].Cost.Eval(x)
	par, _ = costs[OpParallelHash(8)].Cost.Eval(x)
	if bc[MetricTime] <= par[MetricTime] {
		t.Errorf("broadcast (%v) not slower than shuffle (%v) for a large build side",
			bc[MetricTime], par[MetricTime])
	}
}

// TestSortMergeAvoidsSpillCliff: once the hash join spills, sort-merge
// can win; below the spill boundary the hash join is cheaper.
func TestSortMergeAvoidsSpillCliff(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	cfg := extendedConfig()
	m, err := NewModel(bigSchema(), cfg, ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	costs := map[string]*JoinCost{}
	for i := range joins {
		costs[joins[i].Op] = &joins[i]
	}
	// Below spill (build = 4e6*0.05 = 2e5 tuples = 20 MB < 32 MB).
	x := geometry.Vector{0.05}
	hj, _ := costs[OpHashJoin].Cost.Eval(x)
	sm, _ := costs[OpSortMerge].Cost.Eval(x)
	if hj[MetricTime] >= sm[MetricTime] {
		t.Errorf("below spill: hash (%v) not faster than sort-merge (%v)", hj[MetricTime], sm[MetricTime])
	}
	// Far above spill the hash join pays the extra partitioning pass.
	x = geometry.Vector{1}
	hj, _ = costs[OpHashJoin].Cost.Eval(x)
	sm, _ = costs[OpSortMerge].Cost.Eval(x)
	if sm[MetricTime] >= hj[MetricTime] {
		t.Errorf("above spill: sort-merge (%v) not faster than hash (%v)", sm[MetricTime], hj[MetricTime])
	}
}

// TestExtendedOperatorsThroughOptimizer: the optimizer must handle the
// richer operator space and keep at least as many tradeoffs.
func TestExtendedOperatorsThroughOptimizer(t *testing.T) {
	run := func(cfg Config) *core.Result {
		ctx := geometry.NewSolver(geometry.Config{})
		m, err := NewModel(bigSchema(), cfg, ctx)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Context = ctx
		res, err := core.OptimizeCtx(context.Background(), bigSchema(), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	basic := run(DefaultConfig())
	extended := run(extendedConfig())
	if extended.Stats.CreatedPlans <= basic.Stats.CreatedPlans {
		t.Errorf("extended operator space created %d plans, basic %d",
			extended.Stats.CreatedPlans, basic.Stats.CreatedPlans)
	}
	// The extended result must cover the basic result's tradeoffs.
	algebra := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
	for _, xv := range []float64{0.01, 0.5, 0.99} {
		x := geometry.Vector{xv}
		for _, b := range basic.Plans {
			bc := algebra.Eval(b.Cost, x)
			covered := false
			for _, e := range extended.Plans {
				ec := algebra.Eval(e.Cost, x)
				ok := true
				for i := range ec {
					if ec[i] > bc[i]+1e-6*(1+bc[i]) {
						ok = false
						break
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("extended result does not cover basic plan %v at %v", b.Plan, xv)
			}
		}
	}
}
