package mpq_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mpq/internal/baseline"
	"mpq/internal/bench"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/workload"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// optimizeOnce runs one optimizer invocation for benchmarking and
// reports the Figure 12 work metrics.
func optimizeOnce(b *testing.B, tables, params int, shape workload.Shape, seed int64, opts *core.Options) *core.Stats {
	b.Helper()
	stats, err := bench.RunOnce(bench.Config{Shape: shape, Options: opts}, tables, params, seed)
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkFigure12 regenerates the data points of the paper's Figure
// 12 (optimization time, created plans, solved LPs) at benchmark-scale
// sizes; cmd/mpqbench runs the full ranges with medians of 25 queries.
func BenchmarkFigure12(b *testing.B) {
	cases := []struct {
		shape  workload.Shape
		params int
		tables []int
	}{
		{workload.Chain, 1, []int{4, 6, 8, 10}},
		{workload.Star, 1, []int{4, 6, 8}},
		{workload.Chain, 2, []int{4, 5, 6}},
		{workload.Star, 2, []int{4, 5}},
	}
	for _, tc := range cases {
		for _, n := range tc.tables {
			name := fmt.Sprintf("%s-%dp/tables=%d", tc.shape, tc.params, n)
			b.Run(name, func(b *testing.B) {
				var last *core.Stats
				for i := 0; i < b.N; i++ {
					last = optimizeOnce(b, n, tc.params, tc.shape, int64(i)+1, nil)
				}
				b.ReportMetric(float64(last.CreatedPlans), "plans")
				b.ReportMetric(float64(last.Geometry.LPs), "LPs")
				b.ReportMetric(float64(last.FinalPlans), "finalPlans")
			})
		}
	}
}

// BenchmarkFigure12Parallel runs the two profile-dominating Figure 12
// cases with the parallel wavefront at GOMAXPROCS workers, for direct
// comparison against the sequential BenchmarkFigure12 numbers (the
// plans and LPs metrics must match the sequential run exactly).
func BenchmarkFigure12Parallel(b *testing.B) {
	cases := []struct {
		shape  workload.Shape
		params int
		tables int
	}{
		{workload.Chain, 2, 6},
		{workload.Star, 2, 5},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-%dp/tables=%d", tc.shape, tc.params, tc.tables)
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Workers = 0 // GOMAXPROCS
			var last *core.Stats
			for i := 0; i < b.N; i++ {
				o := opts
				last = optimizeOnce(b, tc.tables, tc.params, tc.shape, int64(i)+1, &o)
			}
			b.ReportMetric(float64(last.CreatedPlans), "plans")
			b.ReportMetric(float64(last.Geometry.LPs), "LPs")
			b.ReportMetric(float64(last.Workers), "workers")
		})
	}
}

// BenchmarkAblation measures the effect of the Section 6.2 refinements
// (relevance points, redundant-cutout elimination, emptiness strategy)
// and of Cartesian-product postponement on one mid-size query.
func BenchmarkAblation(b *testing.B) {
	mk := func(strategy region.EmptinessStrategy, points int, elim, postpone bool) core.Options {
		return core.Options{
			Region: region.Options{
				Strategy:                  strategy,
				RelevancePoints:           points,
				EliminateRedundantCutouts: elim,
			},
			PostponeCartesian: postpone,
		}
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"refinements=all/strategy=bemporad", mk(region.StrategyBemporad, 16, true, true)},
		{"refinements=all/strategy=coverdiff", mk(region.StrategyCoverDiff, 16, true, true)},
		{"norelevancepoints", mk(region.StrategyBemporad, 0, true, true)},
		{"nocutoutelimination", mk(region.StrategyBemporad, 16, false, true)},
		{"norefinements", mk(region.StrategyBemporad, 0, false, true)},
		{"nocartesianpostponement", mk(region.StrategyBemporad, 16, true, false)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var last *core.Stats
			for i := 0; i < b.N; i++ {
				opts := v.opts
				last = optimizeOnce(b, 6, 1, workload.Chain, 3, &opts)
			}
			b.ReportMetric(float64(last.Geometry.LPs), "LPs")
		})
	}
}

// BenchmarkCompactionAblation measures the piece-compaction design
// choice of the PWL algebra (DESIGN.md).
func BenchmarkCompactionAblation(b *testing.B) {
	for _, compact := range []bool{true, false} {
		b.Run(fmt.Sprintf("compact=%v", compact), func(b *testing.B) {
			schema, err := workload.Generate(workload.Config{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				ctx := geometry.NewSolver(geometry.Config{})
				model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
				if err != nil {
					b.Fatal(err)
				}
				algebra := core.NewPWLAlgebra(ctx, 2)
				algebra.Compact = compact
				opts := core.DefaultOptions()
				opts.Context = ctx
				opts.Algebra = algebra
				if _, err := core.OptimizeCtx(context.Background(), schema, model, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPQBlowup measures the Section 1.1 experiment: MPQ result
// size stays constant while the PQ fee-encoding grows linearly.
func BenchmarkPQBlowup(b *testing.B) {
	for _, k := range []int{20, 100} {
		b.Run(fmt.Sprintf("plans=%d", k), func(b *testing.B) {
			var mpqSize, pqSize int
			for i := 0; i < b.N; i++ {
				alts, space := baseline.BlowupInstance(k, 5)
				schema := core.StaticSchema(1, []float64{0}, []float64{1})
				model := &core.StaticModel{ParamSpace: space, Metrics: []string{"time", "fees"}, Plans: alts}
				res, err := core.OptimizeCtx(context.Background(), schema, model, core.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				algebra := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
				mpqSize = len(res.Plans)
				pqSize = baseline.PQEncodedSetSize(alts, algebra, geometry.Vector{0.5})
			}
			b.ReportMetric(float64(mpqSize), "mpqPlans")
			b.ReportMetric(float64(pqSize), "pqPlans")
		})
	}
}

// BenchmarkTheorem6 measures Pareto-set sizes under random linear cost
// weights against the 2^((nX+1)*nM) bound of Theorem 6.
func BenchmarkTheorem6(b *testing.B) {
	for _, tc := range []struct{ nX, nM, plans int }{
		{1, 2, 64},
		{2, 2, 64},
	} {
		bound := 1 << uint((tc.nX+1)*tc.nM)
		b.Run(fmt.Sprintf("nX=%d/nM=%d", tc.nX, tc.nM), func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				res := randomLinearPlanSet(b, int64(i)+1, tc.nX, tc.nM, tc.plans)
				kept = len(res.Plans)
			}
			b.ReportMetric(float64(kept), "paretoPlans")
			b.ReportMetric(float64(bound), "theorem6Bound")
		})
	}
}

// BenchmarkBaselines compares RRPA against the fixed-parameter
// baselines on the same query (different problems: the baselines must
// re-optimize for every parameter value).
func BenchmarkBaselines(b *testing.B) {
	schema, err := workload.Generate(workload.Config{Tables: 6, Params: 1, Shape: workload.Chain, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		b.Fatal(err)
	}
	algebra := core.NewPWLAlgebra(ctx, 2)
	x := geometry.Vector{0.4}
	b.Run("mpq-rrpa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.DefaultOptions()
			opts.Context = geometry.NewSolver(geometry.Config{})
			if _, err := core.OptimizeCtx(context.Background(), schema, model, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selinger-fixed-x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.Selinger(schema, model, algebra, x, cloud.MetricTime, true)
		}
	})
	b.Run("mq-pareto-fixed-x", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.ParetoMQ(schema, model, algebra, x, true)
		}
	})
}

// BenchmarkGeometry micro-benchmarks the LP-level operations dominating
// the optimizer profile.
func BenchmarkGeometry(b *testing.B) {
	ctx := geometry.NewSolver(geometry.Config{})
	box := geometry.Box(geometry.Vector{0, 0}, geometry.Vector{1, 1})
	cut := box.With(geometry.Halfspace{W: geometry.Vector{1, 1}, B: 1.2})
	b.Run("chebyshev", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := box.With(geometry.Halfspace{W: geometry.Vector{1, 1}, B: 1 + float64(i%7)/10})
			if _, _, ok := ctx.Chebyshev(p); !ok {
				b.Fatal("empty")
			}
		}
	})
	b.Run("regiondiff", func(b *testing.B) {
		cutouts := []*geometry.Polytope{
			geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.5, 0.5}),
			geometry.Box(geometry.Vector{0.5, 0.5}, geometry.Vector{1, 1}),
		}
		for i := 0; i < b.N; i++ {
			ctx.RegionDiff(box, cutouts)
		}
	})
	b.Run("unionconvex", func(b *testing.B) {
		polys := []*geometry.Polytope{
			geometry.Box(geometry.Vector{0, 0}, geometry.Vector{0.6, 1}),
			geometry.Box(geometry.Vector{0.4, 0}, geometry.Vector{1, 1}),
		}
		for i := 0; i < b.N; i++ {
			ctx.UnionConvex(polys)
		}
	})
	_ = cut
}

// BenchmarkPWLDom micro-benchmarks the dominance-region computation on
// grid-aligned functions (the optimizer's hottest pwl operation).
func BenchmarkPWLDom(b *testing.B) {
	ctx := geometry.NewSolver(geometry.Config{})
	lo, hi := geometry.Vector{0, 0}, geometry.Vector{1, 1}
	grid := pwl.NewGrid(lo, hi, 2)
	f := func(x geometry.Vector) float64 { return 1 + x[0]*x[1] }
	g := func(x geometry.Vector) float64 { return 1.2 + 0.5*x[0] }
	c1 := pwl.NewMulti(grid.Interpolate(f), grid.Interpolate(g))
	c2 := pwl.NewMulti(grid.Interpolate(g), grid.Interpolate(f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pwl.Dom(ctx, c1, c2)
	}
}

// randomLinearPlanSet optimizes a static set of plans whose linear cost
// weights are drawn independently at random — the random model of the
// Theorem 6 analysis.
func randomLinearPlanSet(tb testing.TB, seed int64, nX, nM, plans int) *core.Result {
	tb.Helper()
	rng := newRand(seed)
	lo := make([]float64, nX)
	hi := make([]float64, nX)
	for i := range hi {
		hi[i] = 1
	}
	space := geometry.Box(lo, hi)
	alts := make([]core.Alternative, 0, plans)
	for p := 0; p < plans; p++ {
		comps := make([]*pwl.Function, nM)
		for m := 0; m < nM; m++ {
			w := geometry.NewVector(nX)
			for i := range w {
				w[i] = rng.Float64()
			}
			comps[m] = pwl.Linear(space, w, rng.Float64())
		}
		alts = append(alts, core.Alternative{Op: fmt.Sprintf("p%d", p), Cost: pwl.NewMulti(comps...)})
	}
	schema := core.StaticSchema(nX, lo, hi)
	model := &core.StaticModel{ParamSpace: space, Metrics: metricNamesN(nM), Plans: alts}
	res, err := core.OptimizeCtx(context.Background(), schema, model, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func metricNamesN(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	return names
}
