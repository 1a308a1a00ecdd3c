package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// eagerAlgebra compacts inside Accumulate, so no cost reaches the
// prune with compaction pending: the oracle for the deferred path.
type eagerAlgebra struct{ *core.PWLAlgebra }

func (a eagerAlgebra) Accumulate(step, c1, c2 core.Cost) core.Cost {
	c := a.PWLAlgebra.Accumulate(step, c1, c2)
	c.(*pwl.Multi).Finish(a.Ctx)
	return c
}

func (a eagerAlgebra) Fork(s *geometry.Solver) core.Algebra {
	return eagerAlgebra{a.PWLAlgebra.Fork(s).(*core.PWLAlgebra)}
}

// TestDeferredCompactionMatchesEager: compacting only the newcomers
// that survive the whole-space screen saves byte-identical plan sets to
// compacting every accumulated cost, at one and two workers and with a
// donor, exact and at ε 0.05.
func TestDeferredCompactionMatchesEager(t *testing.T) {
	cfgs := []workload.Config{
		{Shape: workload.Chain, Params: 2, Tables: 3, Seed: 1},
		{Shape: workload.Clique, Params: 1, Tables: 7, Seed: 2},
		{Shape: workload.Star, Params: 1, Tables: 9, Seed: 2},
		{Shape: workload.Cycle, Params: 2, Tables: 4, Seed: 4},
		// A final plan of this one keeps merged pieces, so a build that
		// never compacts saves different bytes; the four above do not.
		{Shape: workload.Cycle, Params: 1, Tables: 5, Seed: 1},
	}
	if testing.Short() {
		cfgs = cfgs[:1]
	}
	for _, cfg := range cfgs {
		for _, eps := range []float64{0, 0.05} {
			for _, mode := range []string{"workers1", "workers2", "donor"} {
				name := fmt.Sprintf("%v-%dp-%dt-s%d/eps%g/%s", cfg.Shape, cfg.Params, cfg.Tables, cfg.Seed, eps, mode)
				t.Run(name, func(t *testing.T) {
					save := func(eager bool) []byte {
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
						opts.Context = ctx
						opts.Epsilon = eps
						opts.Workers = 1
						switch mode {
						case "workers2":
							opts.Workers = 2
						case "donor":
							opts.Donor = newPoolDonor(2)
						}
						if eager {
							opts.Algebra = eagerAlgebra{core.NewPWLAlgebra(ctx, len(model.MetricNames()))}
						}
						res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
						if err != nil {
							t.Fatal(err)
						}
						var buf bytes.Buffer
						if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
							t.Fatal(err)
						}
						return buf.Bytes()
					}
					if !bytes.Equal(save(false), save(true)) {
						t.Error("deferred compaction saved different bytes than eager compaction")
					}
				})
			}
		}
	}
}

// trackedCost wraps a PWL cost and records what the prune did with it.
type trackedCost struct {
	m          *pwl.Multi
	mu         sync.Mutex
	finishes   int  // Finish calls that compacted
	wholeSpace bool // a Dom against it covered the space while pending
}

// pending reports whether c has not been compacted yet; accumulated
// costs always start with compaction pending.
func (c *trackedCost) pending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finishes == 0
}

func (c *trackedCost) Finish(s *geometry.Solver) bool {
	did := c.m.Finish(s)
	if did {
		c.mu.Lock()
		c.finishes++
		c.mu.Unlock()
	}
	return did
}

// trackingAlgebra is a PWLAlgebra whose accumulated costs are
// trackedCosts. Because the Cost values are not *pwl.Multi, the prune
// can reach their compaction only through the Cost's own Finish.
type trackingAlgebra struct {
	inner *core.PWLAlgebra
	space *geometry.Polytope
	rec   *tracking
}

type tracking struct {
	mu    sync.Mutex
	costs []*trackedCost
	// pendingFirst counts Dom calls whose first argument was pending:
	// the newcomer becomes a dominator only after it is finished.
	pendingFirst int
}

func unwrap(c core.Cost) *pwl.Multi {
	if tc, ok := c.(*trackedCost); ok {
		return tc.m
	}
	return c.(*pwl.Multi)
}

func (a *trackingAlgebra) Fork(s *geometry.Solver) core.Algebra {
	return &trackingAlgebra{inner: a.inner.Fork(s).(*core.PWLAlgebra), space: a.space, rec: a.rec}
}

func (a *trackingAlgebra) Accumulate(step, c1, c2 core.Cost) core.Cost {
	tc := &trackedCost{m: a.inner.Accumulate(unwrap(step), unwrap(c1), unwrap(c2)).(*pwl.Multi)}
	a.rec.mu.Lock()
	a.rec.costs = append(a.rec.costs, tc)
	a.rec.mu.Unlock()
	return tc
}

func (a *trackingAlgebra) Dom(c1, c2 core.Cost) []*geometry.Polytope {
	if tc, ok := c1.(*trackedCost); ok && tc.pending() {
		a.rec.mu.Lock()
		a.rec.pendingFirst++
		a.rec.mu.Unlock()
	}
	d := a.inner.Dom(unwrap(c1), unwrap(c2))
	if tc, ok := c2.(*trackedCost); ok && tc.pending() && len(d) == 1 && d[0] == a.space {
		tc.mu.Lock()
		tc.wholeSpace = true
		tc.mu.Unlock()
	}
	return d
}

func (a *trackingAlgebra) Eval(c core.Cost, x geometry.Vector) geometry.Vector {
	return a.inner.Eval(unwrap(c), x)
}

// TestCompactionRunsOnlyForScreenSurvivors: on an exact run every
// accumulated cost reaches the whole-space screen, and it is compacted
// exactly when no screen Dom covered the space; every returned plan's
// cost is finished.
func TestCompactionRunsOnlyForScreenSurvivors(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			schema, err := workload.Generate(workload.Config{Shape: workload.Star, Params: 1, Tables: 7, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx := geometry.NewSolver(geometry.Config{})
			model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
			if err != nil {
				t.Fatal(err)
			}
			rec := &tracking{}
			opts := core.DefaultOptions()
			opts.Context = ctx
			opts.Workers = workers
			opts.Algebra = &trackingAlgebra{inner: core.NewPWLAlgebra(ctx, len(model.MetricNames())), space: model.Space(), rec: rec}
			res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range res.Plans {
				if tc, ok := p.Cost.(*trackedCost); !ok || tc.pending() {
					t.Errorf("plan %d: cost %T is not a compacted join cost", i, p.Cost)
				}
			}
			finished := 0
			for i, tc := range rec.costs {
				if tc.finishes > 1 {
					t.Errorf("candidate %d compacted %d times", i, tc.finishes)
				}
				if tc.wholeSpace && tc.finishes != 0 {
					t.Errorf("candidate %d: dominated on the whole space by the screen, yet compacted", i)
				}
				if !tc.wholeSpace && tc.finishes != 1 {
					t.Errorf("candidate %d: survived the screen, compacted %d times, want 1", i, tc.finishes)
				}
				finished += tc.finishes
			}
			if rec.pendingFirst != 0 {
				t.Errorf("%d Dom calls took a pending cost as the dominator", rec.pendingFirst)
			}
			scans := 0
			for i := range schema.Tables {
				scans += len(model.ScanAlternatives(catalog.TableID(i)))
			}
			if len(rec.costs)+scans != res.Stats.CreatedPlans {
				t.Errorf("tracked %d join candidates and %d scans, but %d plans were created", len(rec.costs), scans, res.Stats.CreatedPlans)
			}
			if finished < len(res.Plans) || finished*2 > len(rec.costs) {
				t.Errorf("compacted %d of %d candidates for %d final plans: want at least the final plans and at most half the candidates",
					finished, len(rec.costs), len(res.Plans))
			}
			t.Logf("compacted %d of %d candidates", finished, len(rec.costs))
		})
	}
}
