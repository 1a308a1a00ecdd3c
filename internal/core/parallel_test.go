package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// optimizeWorkload runs one optimizer invocation on a generated query
// with the given worker count and returns the result.
func optimizeWorkload(t *testing.T, cfg workload.Config, regionOpts *core.Options, workers int) *core.Result {
	t.Helper()
	schema, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if regionOpts != nil {
		opts = *regionOpts
	}
	opts.Context = ctx
	opts.Workers = workers
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// planKey renders a plan tree and its relevance footprint for
// order-insensitive comparison.
func planKey(info *core.PlanInfo) string {
	return fmt.Sprintf("%s cutouts=%d", planString(info.Plan), info.RR.NumCutouts())
}

func planString(n *plan.Node) string {
	if n.IsScan() {
		return fmt.Sprintf("%s(%d)", n.Op, n.Table)
	}
	return fmt.Sprintf("%s(%s,%s)", n.Op, planString(n.Left), planString(n.Right))
}

// TestParallelWavefrontDeterminism asserts the historical determinism
// contract, now upheld by the dependency scheduler: for a fixed
// workload seed, any worker count produces the identical Pareto plan
// set (same plans in the same order) and identical aggregate
// statistics — created plans, pruned plans, and every geometry counter
// including the Figure 12 LP count. Running this under -race
// additionally exercises the reentrant solver and the synchronized
// Chebyshev memo. TestSchedulerStoreEquivalence sharpens the plan-set
// half of this contract to byte-identical store documents.
func TestParallelWavefrontDeterminism(t *testing.T) {
	cases := []workload.Config{
		{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 3},
		{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 7},
		{Tables: 4, Params: 2, Shape: workload.Star, Seed: 11},
	}
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("%s-%dp-%dt", cfg.Shape, cfg.Params, cfg.Tables), func(t *testing.T) {
			seq := optimizeWorkload(t, cfg, nil, 1)
			for _, workers := range []int{2, 4} {
				par := optimizeWorkload(t, cfg, nil, workers)
				if par.Stats.Workers != workers {
					t.Fatalf("run used %d workers, want %d", par.Stats.Workers, workers)
				}
				if got, want := len(par.Plans), len(seq.Plans); got != want {
					t.Fatalf("workers=%d: %d final plans, sequential %d", workers, got, want)
				}
				for i := range par.Plans {
					if g, w := planKey(par.Plans[i]), planKey(seq.Plans[i]); g != w {
						t.Errorf("workers=%d: plan %d = %s, sequential %s", workers, i, g, w)
					}
				}
				if par.Stats.CreatedPlans != seq.Stats.CreatedPlans ||
					par.Stats.PrunedPlans != seq.Stats.PrunedPlans ||
					par.Stats.FinalPlans != seq.Stats.FinalPlans ||
					par.Stats.MaxPlansPerSet != seq.Stats.MaxPlansPerSet {
					t.Errorf("workers=%d: plan stats %+v, sequential %+v", workers, par.Stats, seq.Stats)
				}
				if par.Stats.Geometry != seq.Stats.Geometry {
					t.Errorf("workers=%d: geometry stats %v, sequential %v",
						workers, par.Stats.Geometry, seq.Stats.Geometry)
				}
			}
		})
	}
}

// TestParallelFallbackForNonForkableAlgebra: a custom algebra that does
// not implement ForkableAlgebra must run on one worker instead of
// racing on shared solver state, and must never offer work to a Donor
// (a donated worker forks the algebra). Either way the run saves the forkable one-worker run's bytes.
func TestParallelFallbackForNonForkableAlgebra(t *testing.T) {
	cfg := workload.Config{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 5}
	ref := core.DefaultOptions()
	ref.Workers = 1
	_, want := optimizeAndSave(t, cfg, ref)
	schema, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor := newPoolDonor(3)
	for _, withDonor := range []bool{false, true} {
		ctx := geometry.NewSolver(geometry.Config{})
		model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Context = ctx
		opts.Workers = 4
		opts.Algebra = nonForkable{core.NewPWLAlgebra(ctx, 2)}
		if withDonor {
			opts.Donor = donor
		}
		res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers != 1 {
			t.Errorf("donor=%v: non-forkable algebra ran with %d workers, want 1", withDonor, res.Stats.Workers)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("donor=%v: plan set differs from the forkable one-worker run", withDonor)
		}
	}
	if offers := donor.accepted + donor.declined; offers != 0 {
		t.Errorf("donor was offered %d tasks for a non-forkable algebra, want 0", offers)
	}
}

// nonForkable hides the Fork method of the wrapped algebra.
type nonForkable struct{ inner core.Algebra }

func (n nonForkable) Dom(c1, c2 core.Cost) []*geometry.Polytope { return n.inner.Dom(c1, c2) }
func (n nonForkable) Accumulate(step, c1, c2 core.Cost) core.Cost {
	return n.inner.Accumulate(step, c1, c2)
}
func (n nonForkable) Eval(c core.Cost, x geometry.Vector) geometry.Vector {
	return n.inner.Eval(c, x)
}

// TestParallelKeepPerSet: the per-set snapshot must contain identical
// table sets with identically sized Pareto sets under any worker count.
func TestParallelKeepPerSet(t *testing.T) {
	mk := func(workers int) *core.Result {
		opts := core.DefaultOptions()
		opts.KeepPerSet = true
		opts.Workers = workers
		cfg := workload.Config{Tables: 5, Params: 2, Shape: workload.Star, Seed: 2}
		return optimizeWorkload(t, cfg, &opts, workers)
	}
	seq, par := mk(1), mk(3)
	if len(seq.PerSet) != len(par.PerSet) {
		t.Fatalf("per-set maps differ in size: %d vs %d", len(seq.PerSet), len(par.PerSet))
	}
	for set, plans := range seq.PerSet {
		pp, ok := par.PerSet[set]
		if !ok {
			t.Errorf("parallel run missing table set %v", set)
			continue
		}
		if len(pp) != len(plans) {
			t.Errorf("set %v: %d plans parallel, %d sequential", set, len(pp), len(plans))
		}
	}
	_ = catalog.TableSet(0)
}
