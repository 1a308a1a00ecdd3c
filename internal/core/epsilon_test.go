package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/workload"
)

// optimizeEps runs one optimizer invocation with the given epsilon and
// worker count, returning the result together with the model (for
// sampling and evaluation in regret checks).
func optimizeEps(t *testing.T, cfg workload.Config, eps float64, workers int) (*core.Result, core.CostModel) {
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
	opts.Context = ctx
	opts.Workers = workers
	opts.Epsilon = eps
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, model
}

// TestEpsilonValidation: negative epsilon and epsilon on an algebra
// without the EpsilonAlgebra operations must fail fast rather than
// silently running the exact prune.
func TestEpsilonValidation(t *testing.T) {
	schema, err := workload.Generate(workload.Config{Tables: 3, Params: 1, Shape: workload.Chain, Seed: 1})
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
	opts.Epsilon = -0.1
	if _, err := core.OptimizeCtx(context.Background(), schema, model, opts); err == nil {
		t.Error("negative epsilon accepted")
	}
	opts.Epsilon = 0.1
	opts.Algebra = nonForkable{core.NewPWLAlgebra(ctx, 2)}
	_, err = core.OptimizeCtx(context.Background(), schema, model, opts)
	if err == nil {
		t.Fatal("epsilon with non-EpsilonAlgebra accepted")
	}
	if !strings.Contains(err.Error(), "EpsilonAlgebra") {
		t.Errorf("error %q does not name the missing interface", err)
	}
}

// TestEpsilonDeterminismAcrossWorkers asserts the determinism contract
// of the ε-approximate prune: for a fixed workload seed and fixed ε,
// every worker count produces the identical plan set (same plans, same
// order, same relevance footprints) and identical plan statistics. The
// ε-admission gate sees candidates for each table set in the same
// enumeration order on every schedule (one worker completes a set), so
// the parallel wavefront cannot perturb which plans it drops.
func TestEpsilonDeterminismAcrossWorkers(t *testing.T) {
	cases := []workload.Config{
		{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 3},
		{Tables: 4, Params: 2, Shape: workload.Star, Seed: 11},
	}
	for _, cfg := range cases {
		for _, eps := range []float64{0, 0.05, 0.1} {
			t.Run(fmt.Sprintf("%s-%dp-%dt/eps=%g", cfg.Shape, cfg.Params, cfg.Tables, eps), func(t *testing.T) {
				seq, _ := optimizeEps(t, cfg, eps, 1)
				for _, workers := range []int{2, 4, 0} {
					par, _ := optimizeEps(t, cfg, eps, workers)
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
				}
			})
		}
	}
}

// TestEpsilonZeroMatchesExact: Epsilon = 0 must take the historical
// exact code path — identical plans and identical statistics, LP counts
// included, to a run that never heard of the epsilon knob.
func TestEpsilonZeroMatchesExact(t *testing.T) {
	cfg := workload.Config{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 7}
	exact := optimizeWorkload(t, cfg, nil, 1)
	zero, _ := optimizeEps(t, cfg, 0, 1)
	if len(exact.Plans) != len(zero.Plans) {
		t.Fatalf("eps=0: %d plans, exact %d", len(zero.Plans), len(exact.Plans))
	}
	for i := range exact.Plans {
		if g, w := planKey(zero.Plans[i]), planKey(exact.Plans[i]); g != w {
			t.Errorf("plan %d = %s, exact %s", i, g, w)
		}
	}
	if exact.Stats.Geometry != zero.Stats.Geometry {
		t.Errorf("eps=0 geometry stats %v, exact %v", zero.Stats.Geometry, exact.Stats.Geometry)
	}
}

// TestEpsilonReducesPlansWithBoundedRegret: raising ε must not grow the
// final plan set, must shrink it at ε = 0.1 on this workload, and every
// surviving set must cover the exact frontier within a multiplicative
// (1+ε) at every sampled parameter point: for each exact plan relevant
// at x there is an ε-tier plan relevant at x whose cost vector is at
// most (1+ε) times the exact plan's on every metric.
func TestEpsilonReducesPlansWithBoundedRegret(t *testing.T) {
	cfg := workload.Config{Tables: 6, Params: 1, Shape: workload.Chain, Seed: 3}
	exact, model := optimizeEps(t, cfg, 0, 1)
	lo, hi, err := catalogBounds(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	points := make([]geometry.Vector, 40)
	for i := range points {
		x := geometry.NewVector(len(lo))
		for d := range x {
			x[d] = lo[d] + (0.05+0.9*rng.Float64())*(hi[d]-lo[d])
		}
		points[i] = x
	}
	_ = model
	prev := len(exact.Plans)
	for _, eps := range []float64{0.01, 0.1} {
		res, _ := optimizeEps(t, cfg, eps, 1)
		if len(res.Plans) > prev {
			t.Errorf("eps=%g: %d plans, exceeds smaller-eps count %d", eps, len(res.Plans), prev)
		}
		prev = len(res.Plans)
		bound := (1 + eps) * (1 + 1e-9)
		for _, x := range points {
			for _, p := range exact.Plans {
				if !p.RR.Contains(x, 1e-9) {
					continue
				}
				pv, _ := p.Cost.(*pwl.Multi).Eval(x)
				best := maxRegretAt(res.Plans, x, pv)
				if best > bound {
					t.Fatalf("eps=%g: regret %v > %v at x=%v", eps, best, bound, x)
				}
			}
		}
	}
	small, _ := optimizeEps(t, cfg, 0.1, 1)
	if len(small.Plans) >= len(exact.Plans) {
		t.Errorf("eps=0.1 kept %d plans, exact %d: no reduction on this workload", len(small.Plans), len(exact.Plans))
	}
}

// maxRegretAt returns the smallest over relevant plans of the largest
// per-metric ratio against the reference cost vector ref.
func maxRegretAt(plans []*core.PlanInfo, x geometry.Vector, ref geometry.Vector) float64 {
	best := 0.0
	first := true
	for _, q := range plans {
		if !q.RR.Contains(x, 1e-9) {
			continue
		}
		qv, _ := q.Cost.(*pwl.Multi).Eval(x)
		worst := 0.0
		for m := range ref {
			var r float64
			switch {
			case ref[m] > 1e-12:
				r = qv[m] / ref[m]
			case qv[m] > 1e-12:
				r = 1e18 // reference ~0, candidate not: unbounded regret
			default:
				r = 1
			}
			if r > worst {
				worst = r
			}
		}
		if first || worst < best {
			best, first = worst, false
		}
	}
	if first {
		return 1e18 // no relevant plan at x: coverage hole
	}
	return best
}

// catalogBounds regenerates the workload schema and returns its
// parameter bounds for sampling.
func catalogBounds(cfg workload.Config) (lo, hi geometry.Vector, err error) {
	schema, err := workload.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	lo, hi = schema.ParameterBounds()
	return lo, hi, nil
}

// manyObjModel is a CostModel with an arbitrary number of metrics whose
// per-operator costs are constants 1.0 plus a deterministic sub-1%%
// jitter: generic enough that almost every pair of plans is
// Pareto-incomparable (the exact frontier of a k-table set grows with
// the number of join trees times operator assignments), yet so close in
// value that a coarse ε collapses each set to its single cheapest
// representative.
type manyObjModel struct {
	space   *geometry.Polytope
	metrics []string
}

func newManyObjModel(metrics int) *manyObjModel {
	names := make([]string, metrics)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	space := geometry.Box(geometry.Vector{0}, geometry.Vector{1})
	return &manyObjModel{space: space, metrics: names}
}

func (m *manyObjModel) Space() *geometry.Polytope { return m.space }
func (m *manyObjModel) MetricNames() []string     { return m.metrics }

// cost builds the constant multi-metric cost 1 + 0.01·jitter(tags, m).
func (m *manyObjModel) cost(tags ...uint64) core.Cost {
	comps := make([]*pwl.Function, len(m.metrics))
	for i := range comps {
		comps[i] = pwl.Constant(m.space, 1+0.01*jitterHash(append(tags, uint64(i))...))
	}
	return pwl.NewMulti(comps...)
}

func (m *manyObjModel) ScanAlternatives(t catalog.TableID) []core.Alternative {
	return []core.Alternative{
		{Op: "scanA", Cost: m.cost(1, uint64(t))},
		{Op: "scanB", Cost: m.cost(2, uint64(t))},
	}
}

func (m *manyObjModel) JoinAlternatives(left, right catalog.TableSet) []core.Alternative {
	return []core.Alternative{
		{Op: "joinA", Cost: m.cost(3, uint64(left), uint64(right))},
		{Op: "joinB", Cost: m.cost(4, uint64(left), uint64(right))},
	}
}

// jitterHash maps integer tags to a deterministic value in [0, 1)
// (FNV-1a folded to three decimal digits).
func jitterHash(tags ...uint64) float64 {
	h := uint64(1469598103934665603)
	for _, b := range tags {
		h ^= b
		h *= 1099511628211
	}
	return float64(h%1000) / 1000
}

// manyObjSchema is a chain of n unit tables joined left to right.
func manyObjSchema(n int) *catalog.Schema {
	s := &catalog.Schema{NumParams: 1}
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, catalog.Table{Name: fmt.Sprintf("T%d", i+1), Card: 1, TupleBytes: 1})
		if i > 0 {
			s.Edges = append(s.Edges, catalog.JoinEdge{A: catalog.TableID(i - 1), B: catalog.TableID(i), Sel: 1})
		}
	}
	return s
}

// TestManyObjectiveRequiresEpsilon: with four near-tied metrics almost
// every candidate is Pareto-incomparable, so the exact optimizer blows
// through any reasonable per-set plan budget — deterministically, for
// any worker count. The same workload under a coarse ε collapses each
// table set to a single representative and completes inside the same
// budget. This is the gated many-objective configuration of the
// ε-frontier design: exact is infeasible, approximate is cheap.
func TestManyObjectiveRequiresEpsilon(t *testing.T) {
	schema := manyObjSchema(5)
	model := newManyObjModel(4)
	run := func(eps float64, workers int) (*core.Result, error) {
		opts := core.DefaultOptions()
		opts.Context = geometry.NewSolver(geometry.Config{})
		opts.Workers = workers
		opts.Epsilon = eps
		opts.MaxPlansPerSet = 100
		return core.OptimizeCtx(context.Background(), schema, model, opts)
	}
	for _, workers := range []int{1, 2, 4} {
		if _, err := run(0, workers); !errors.Is(err, core.ErrPlanBudget) {
			t.Fatalf("workers=%d: exact run error = %v, want ErrPlanBudget", workers, err)
		}
	}
	res, err := run(0.5, 1)
	if err != nil {
		t.Fatalf("eps=0.5 run failed: %v", err)
	}
	if res.Stats.MaxPlansPerSet > 100 {
		t.Errorf("eps run max plans per set %d exceeds budget", res.Stats.MaxPlansPerSet)
	}
	if len(res.Plans) == 0 {
		t.Fatal("eps run produced no plans")
	}
	for _, workers := range []int{2, 4} {
		par, err := run(0.5, workers)
		if err != nil {
			t.Fatalf("eps=0.5 workers=%d failed: %v", workers, err)
		}
		if len(par.Plans) != len(res.Plans) {
			t.Fatalf("workers=%d: %d plans, sequential %d", workers, len(par.Plans), len(res.Plans))
		}
		for i := range par.Plans {
			if g, w := planKey(par.Plans[i]), planKey(res.Plans[i]); g != w {
				t.Errorf("workers=%d: plan %d = %s, sequential %s", workers, i, g, w)
			}
		}
	}
}
