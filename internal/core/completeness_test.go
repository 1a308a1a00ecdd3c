package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpq/internal/baseline"
	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/region"
	"mpq/internal/workload"
)

func cloudSetup(t *testing.T, tables, params int, shape workload.Shape, seed int64) (*catalog.Schema, *cloud.Model, *geometry.Solver) {
	t.Helper()
	schema, err := workload.Generate(workload.Config{Tables: tables, Params: params, Shape: shape, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return schema, model, ctx
}

func sampleParams(schema *catalog.Schema, perDim int) []geometry.Vector {
	lo, hi := schema.ParameterBounds()
	return geometry.SamplePointsInBox(lo, hi, perDim, 64)
}

// theorem3Cases are the templates of TestTheorem3Completeness, each run
// at seeds 1 to 3.
var theorem3Cases = []struct {
	tables, params int
	shape          workload.Shape
}{
	{3, 1, workload.Chain},
	{4, 1, workload.Chain},
	{4, 1, workload.Star},
	{3, 2, workload.Chain},
	{4, 2, workload.Star},
}

// TestTheorem3Completeness is the executable form of the paper's main
// correctness result: the plan set produced by PWL-RRPA must contain,
// for every possible plan p and every parameter point x, a plan that
// weakly dominates p at x. We verify against exhaustive enumeration of
// the full bushy plan space on randomly generated chain and star
// queries.
func TestTheorem3Completeness(t *testing.T) {
	for _, tc := range theorem3Cases {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s-%dt-%dp-seed%d", tc.shape, tc.tables, tc.params, seed)
			t.Run(name, func(t *testing.T) {
				schema, model, ctx := cloudSetup(t, tc.tables, tc.params, tc.shape, seed)
				opts := core.DefaultOptions()
				opts.Context = ctx
				res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
				if err != nil {
					t.Fatalf("optimize: %v", err)
				}
				// Ground truth: enumerate the full bushy plan space with
				// the LP-free pointwise algebra over the sample grid.
				points := sampleParams(schema, 5)
				pointwise := &baseline.PointwiseAlgebra{Points: points}
				all := baseline.EnumerateAll(schema, model, pointwise, true)
				if len(all) == 0 {
					t.Fatal("no plans enumerated")
				}
				pwlAlg := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
				for _, x := range points {
					keptCosts := make([]geometry.Vector, len(res.Plans))
					for i, kept := range res.Plans {
						keptCosts[i] = pwlAlg.Eval(kept.Cost, x)
					}
					for _, p := range all {
						pc := pointwise.Eval(p.Cost, x)
						covered := false
						for _, kc := range keptCosts {
							if weaklyDominatesTol(kc, pc, 1e-6) {
								covered = true
								break
							}
						}
						if !covered {
							t.Fatalf("plan %v with cost %v at x=%v not dominated by any of %d kept plans",
								p.Plan, pc, x, len(res.Plans))
						}
					}
				}
			})
		}
	}
}

// TestRelevanceRegionGroundTruth checks the relevance mapping, not just
// the plan set: at 200 seeded uniform points inside the parameter space,
// the kept plans whose relevance region contains the point must weakly
// dominate every plan of the full bushy plan space there. A point where
// they do not is one where run-time selection (selection.Frontier)
// offers nothing or only dominated plans, even though the plan set
// itself may be complete. Cases: TestTheorem3Completeness's templates
// plus cycle-2p/4t at seeds 1 to 4.
func TestRelevanceRegionGroundTruth(t *testing.T) {
	type rrCase struct {
		shape          workload.Shape
		tables, params int
		seed           int64
	}
	var cases []rrCase
	for _, tc := range theorem3Cases {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, rrCase{tc.shape, tc.tables, tc.params, seed})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, rrCase{workload.Cycle, 4, 2, seed})
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%dp-%dt-s%d", tc.shape, tc.params, tc.tables, tc.seed), func(t *testing.T) {
			schema, model, ctx := cloudSetup(t, tc.tables, tc.params, tc.shape, tc.seed)
			opts := core.DefaultOptions()
			opts.Context = ctx
			opts.Workers = 1
			res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			points := inSpacePoints(schema, model.Space(), 200, tc.seed)
			pointwise := &baseline.PointwiseAlgebra{Points: points}
			all := baseline.EnumerateAll(schema, model, pointwise, true)
			pwlAlg := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
			bad := 0
			var first string
			for i, x := range points {
				var relevant []geometry.Vector
				for _, kept := range res.Plans {
					if kept.RR.Contains(x, 1e-9) {
						relevant = append(relevant, pwlAlg.Eval(kept.Cost, x))
					}
				}
				for _, p := range all {
					pc := pointwise.EvalAt(p.Cost, i)
					if !slices.ContainsFunc(relevant, func(kc geometry.Vector) bool { return weaklyDominatesTol(kc, pc, 1e-6) }) {
						if bad == 0 {
							first = fmt.Sprintf("plan %v with cost %v at x=%v (%d relevant kept plans)", p.Plan, pc, x, len(relevant))
						}
						bad++
						break
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d points have an enumerated plan no relevant kept plan dominates; first: %s", bad, len(points), first)
			}
		})
	}
}

// inSpacePoints draws n points uniformly from the parameter box of
// schema, keeping only points inside space.
func inSpacePoints(schema *catalog.Schema, space *geometry.Polytope, n int, seed int64) []geometry.Vector {
	lo, hi := schema.ParameterBounds()
	rng := rand.New(rand.NewSource(seed))
	var pts []geometry.Vector
	for len(pts) < n {
		x := geometry.NewVector(len(lo))
		for j := range x {
			x[j] = lo[j] + (hi[j]-lo[j])*rng.Float64()
		}
		if space.ContainsPoint(x, 0) {
			pts = append(pts, x)
		}
	}
	return pts
}

func weaklyDominatesTol(a, b geometry.Vector, rtol float64) bool {
	for i := range a {
		if a[i] > b[i]+rtol*(1+b[i]) {
			return false
		}
	}
	return true
}

// TestCompletenessAcrossOptions re-runs the completeness check under
// every combination of emptiness strategy and refinement flags: the
// refinements must not change the correctness guarantee.
func TestCompletenessAcrossOptions(t *testing.T) {
	schema, model, _ := cloudSetup(t, 4, 1, workload.Chain, 11)
	algebra := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
	all := baseline.EnumerateAll(schema, model, algebra, true)

	for _, strat := range []region.EmptinessStrategy{region.StrategyBemporad, region.StrategyCoverDiff} {
		for _, points := range []int{0, 16} {
			for _, elim := range []bool{false, true} {
				name := fmt.Sprintf("%v-pts%d-elim%v", strat, points, elim)
				t.Run(name, func(t *testing.T) {
					ctx := geometry.NewSolver(geometry.Config{})
					opts := core.Options{
						Region: region.Options{
							Strategy:                  strat,
							RelevancePoints:           points,
							EliminateRedundantCutouts: elim,
						},
						PostponeCartesian: true,
						Context:           ctx,
					}
					res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
					if err != nil {
						t.Fatalf("optimize: %v", err)
					}
					for _, x := range sampleParams(schema, 5) {
						front := baseline.TrueFrontAt(all, algebra, x)
						for _, f := range front {
							covered := false
							for _, kept := range res.Plans {
								if weaklyDominatesTol(algebra.Eval(kept.Cost, x), f, 1e-6) {
									covered = true
									break
								}
							}
							if !covered {
								t.Fatalf("front point %v at x=%v uncovered", f, x)
							}
						}
					}
				})
			}
		}
	}
}

// TestOptimizeKeepPerSet verifies intermediate plan sets are retained on
// request and every stored table set has at least one plan.
func TestOptimizeKeepPerSet(t *testing.T) {
	schema, model, ctx := cloudSetup(t, 4, 1, workload.Chain, 3)
	opts := core.DefaultOptions()
	opts.Context = ctx
	opts.KeepPerSet = true
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if res.PerSet == nil {
		t.Fatal("PerSet not populated")
	}
	// Chain over 4 tables: connected subsets are contiguous runs:
	// 4 singletons + 3 pairs + 2 triples + 1 quad = 10.
	if len(res.PerSet) != 10 {
		t.Errorf("PerSet has %d table sets, want 10 (connected subsets of a 4-chain)", len(res.PerSet))
	}
	for set, plans := range res.PerSet {
		if len(plans) == 0 {
			t.Errorf("table set %v has empty plan set", set)
		}
		for _, info := range plans {
			if info.Plan.Set != set {
				t.Errorf("plan %v stored under wrong set %v", info.Plan, set)
			}
		}
	}
}

// TestPostponeCartesianReducesWork: with Cartesian postponement the
// optimizer must create no more plans than without, and both must cover
// the true Pareto front.
func TestPostponeCartesianReducesWork(t *testing.T) {
	schema, model, _ := cloudSetup(t, 4, 1, workload.Chain, 5)
	run := func(postpone bool) *core.Result {
		opts := core.DefaultOptions()
		opts.PostponeCartesian = postpone
		opts.Context = geometry.NewSolver(geometry.Config{})
		res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
		if err != nil {
			t.Fatalf("optimize(postpone=%v): %v", postpone, err)
		}
		return res
	}
	with := run(true)
	without := run(false)
	if with.Stats.CreatedPlans >= without.Stats.CreatedPlans {
		t.Errorf("postponement created %d plans, without %d — expected fewer",
			with.Stats.CreatedPlans, without.Stats.CreatedPlans)
	}
	// Both plan sets must mutually cover each other at sample points.
	algebra := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
	for _, x := range sampleParams(schema, 5) {
		for _, a := range with.Plans {
			ac := algebra.Eval(a.Cost, x)
			covered := false
			for _, b := range without.Plans {
				if weaklyDominatesTol(algebra.Eval(b.Cost, x), ac, 1e-6) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("plan %v at x=%v not covered by full search space result", a.Plan, x)
			}
		}
	}
}

// TestBemporadCoverGroundTruth guards the Bemporad emptiness check
// against its false negative: a relevance region whose cutouts cover
// the space with a non-convex union (or a convex union that does not
// contain the space up to tolerance) is empty, and answering "not
// empty" kept plans that no point needs. The templates below are the
// ones whose plan sets shrank when the check was fixed; the smaller
// plan sets must still weakly dominate every enumerated plan at every
// point of an 8×8 grid.
func TestBemporadCoverGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		shape          workload.Shape
		tables, params int
		seed           int64
	}{
		{workload.Chain, 4, 2, 2},
		{workload.Clique, 3, 2, 2},
		{workload.Clique, 4, 2, 2},
	} {
		t.Run(fmt.Sprintf("%s-%dp-%dt-s%d", tc.shape, tc.params, tc.tables, tc.seed), func(t *testing.T) {
			checkGroundTruth(t, tc.shape, tc.tables, tc.params, tc.seed, 8)
		})
	}
}

// checkGroundTruth optimizes one generated template with the default
// options and requires every plan of the full bushy plan space to be
// weakly dominated by a kept plan at every point of a perDim^params
// grid.
func checkGroundTruth(t *testing.T, shape workload.Shape, tables, params int, seed int64, perDim int) {
	t.Helper()
	schema, model, ctx := cloudSetup(t, tables, params, shape, seed)
	opts := core.DefaultOptions()
	opts.Context = ctx
	opts.Workers = 1
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	points := sampleParams(schema, perDim)
	pointwise := &baseline.PointwiseAlgebra{Points: points}
	all := baseline.EnumerateAll(schema, model, pointwise, true)
	pwlAlg := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
	for _, x := range points {
		keptCosts := make([]geometry.Vector, len(res.Plans))
		for i, kept := range res.Plans {
			keptCosts[i] = pwlAlg.Eval(kept.Cost, x)
		}
		for _, p := range all {
			pc := pointwise.Eval(p.Cost, x)
			covered := false
			for _, kc := range keptCosts {
				if weaklyDominatesTol(kc, pc, 1e-6) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("plan %v with cost %v at x=%v not dominated by any of %d kept plans",
					p.Plan, pc, x, len(res.Plans))
			}
		}
	}
	t.Logf("%d kept plans cover %d enumerated plans at %d points", len(res.Plans), len(all), len(points))
}
