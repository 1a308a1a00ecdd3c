package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// optimizeAndSave runs one optimizer invocation on a generated query
// and serializes the resulting Pareto plan set through the store
// format, the byte-level fingerprint of the determinism contract.
func optimizeAndSave(t *testing.T, cfg workload.Config, opts core.Options) (*core.Result, []byte) {
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
	opts.Context = ctx
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// equivalenceWorkerCounts returns the worker counts the equivalence
// property test compares against the first one-worker run. The
// MPQ_TEST_WORKERS environment variable (the CI worker-count matrix)
// narrows the set to one value; 0 means GOMAXPROCS. A count of 1
// compares an *independent* one-worker rerun against the first —
// run-to-run reproducibility with fresh solvers and memos — while
// counts > 1 compare runs at more workers against the one-worker run.
// Duplicates are dropped so each heavy optimization runs once
// per distinct count.
func equivalenceWorkerCounts(t *testing.T) []int {
	raw := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("MPQ_TEST_WORKERS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("MPQ_TEST_WORKERS=%q: %v", env, err)
		}
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		raw = []int{n}
	}
	var counts []int
	for _, n := range raw {
		dup := false
		for _, seen := range counts {
			dup = dup || seen == n
		}
		if !dup {
			counts = append(counts, n)
		}
	}
	return counts
}

// TestSchedulerStoreEquivalence is the scheduler's central property
// test: for every join-graph shape, the pipelined dependency scheduler
// must produce a plan set that serializes to byte-identical store
// documents for any worker count, and every aggregate counter of the determinism
// contract (created/pruned plans, all geometry Stats, the Figure 12 LP
// count) must match the Workers=1 run exactly. Running
// under -race additionally exercises the sharded store's atomic
// publication and the scheduler's dependency bookkeeping.
func TestSchedulerStoreEquivalence(t *testing.T) {
	cases := []workload.Config{
		{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 3},
		{Tables: 5, Params: 1, Shape: workload.Star, Seed: 11},
		{Tables: 5, Params: 2, Shape: workload.Cycle, Seed: 5},
		{Tables: 4, Params: 2, Shape: workload.Clique, Seed: 7},
	}
	workerCounts := equivalenceWorkerCounts(t)
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("%s-%dp-%dt", cfg.Shape, cfg.Params, cfg.Tables), func(t *testing.T) {
			seqOpts := core.DefaultOptions()
			seqOpts.Workers = 1
			seq, seqBytes := optimizeAndSave(t, cfg, seqOpts)
			for _, workers := range workerCounts {
				opts := core.DefaultOptions()
				opts.Workers = workers
				par, parBytes := optimizeAndSave(t, cfg, opts)
				if par.Stats.Workers != workers {
					t.Fatalf("run used %d workers, want %d", par.Stats.Workers, workers)
				}
				if !bytes.Equal(seqBytes, parBytes) {
					t.Errorf("workers=%d: store.Save output differs from sequential (%d vs %d bytes)",
						workers, len(parBytes), len(seqBytes))
				}
				assertDeterministicStats(t, workers, seq, par)
			}
		})
	}
}

// assertDeterministicStats checks every counter of the determinism
// contract. Scheduler metrics (tasks, utilization) are deliberately
// excluded: they reflect runtime scheduling, not results.
func assertDeterministicStats(t *testing.T, workers int, seq, par *core.Result) {
	t.Helper()
	if par.Stats.CreatedPlans != seq.Stats.CreatedPlans ||
		par.Stats.PrunedPlans != seq.Stats.PrunedPlans ||
		par.Stats.FinalPlans != seq.Stats.FinalPlans ||
		par.Stats.MaxPlansPerSet != seq.Stats.MaxPlansPerSet {
		t.Errorf("workers=%d: plan counters (created=%d pruned=%d final=%d max=%d), sequential (created=%d pruned=%d final=%d max=%d)",
			workers,
			par.Stats.CreatedPlans, par.Stats.PrunedPlans, par.Stats.FinalPlans, par.Stats.MaxPlansPerSet,
			seq.Stats.CreatedPlans, seq.Stats.PrunedPlans, seq.Stats.FinalPlans, seq.Stats.MaxPlansPerSet)
	}
	if par.Stats.Geometry != seq.Stats.Geometry {
		t.Errorf("workers=%d: geometry stats %v, sequential %v", workers, par.Stats.Geometry, seq.Stats.Geometry)
	}
}

// TestSchedulerStats: the pipeline metrics must be populated — busy
// time and wall time measured, utilization within (0, 1]. One worker
// without a donor plans every mask on the caller's goroutine, so its
// busy time cannot exceed the wall time and no mask is donated.
func TestSchedulerStats(t *testing.T) {
	cfg := workload.Config{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 4}
	for _, workers := range []int{1, 3} {
		opts := core.DefaultOptions()
		opts.Workers = workers
		res, _ := optimizeAndSave(t, cfg, opts)
		sc := res.Stats.Scheduler
		if sc.Wall <= 0 || sc.Busy <= 0 {
			t.Errorf("workers=%d: empty scheduler stats %+v", workers, sc)
		}
		u := res.Stats.PipelineUtilization()
		if u <= 0 || u > 1 {
			t.Errorf("workers=%d: utilization %v out of (0,1]", workers, u)
		}
		if workers == 1 && (sc.DonatedMasks != 0 || sc.Busy > sc.Wall) {
			t.Errorf("one worker: donated masks %d (want 0), busy %v > wall %v",
				sc.DonatedMasks, sc.Busy, sc.Wall)
		}
	}
}

// TestPerSetIsACopy: Result.PerSet must be a fresh map with fresh
// slices — mutating it must not corrupt the result (it used to alias
// the optimizer's internal plan map).
func TestPerSetIsACopy(t *testing.T) {
	cfg := workload.Config{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 9}
	opts := core.DefaultOptions()
	opts.KeepPerSet = true
	res, _ := optimizeAndSave(t, cfg, opts)
	full, ok := res.PerSet[res.Query]
	if !ok || len(full) != len(res.Plans) {
		t.Fatalf("PerSet[%v] has %d plans, result has %d", res.Query, len(full), len(res.Plans))
	}
	if &full[0] == &res.Plans[0] {
		t.Error("PerSet aliases the result's plan slice")
	}
	// Corrupt the returned map thoroughly; the result must be unharmed.
	for q, infos := range res.PerSet {
		for i := range infos {
			infos[i] = nil
		}
		delete(res.PerSet, q)
	}
	for i, info := range res.Plans {
		if info == nil {
			t.Fatalf("result plan %d destroyed by mutating PerSet", i)
		}
	}
}
