package baseline

import (
	"context"
	"math"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/workload"
)

func testSetup(t *testing.T, tables, params int, shape workload.Shape, seed int64) (*catalog.Schema, *cloud.Model, *core.PWLAlgebra, *geometry.Solver) {
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
	algebra := core.NewPWLAlgebra(ctx, 2)
	return schema, model, algebra, ctx
}

func TestEnumerateAllCounts(t *testing.T) {
	schema, model, algebra, _ := testSetup(t, 3, 1, workload.Chain, 1)
	plans := EnumerateAll(schema, model, algebra, true)
	if len(plans) == 0 {
		t.Fatal("no plans enumerated")
	}
	// Chain T1-T2-T3, 2 join operators, T1 has idx+scan, T2/T3 scan
	// only. Sub-plans: {T1,T2}: 2 (T1 scans) * 1 * 2 ops * 2 orders = 8;
	// {T2,T3}: 1*1*2*2 = 4. Full plans: splits T1|{T2,T3}: 2*4*2*2(order)
	// ... count must at least be the connected bushy space; just check
	// all plans join all 3 tables and are distinct.
	seen := make(map[string]bool)
	for _, p := range plans {
		if p.Plan.Set != schema.AllTables() {
			t.Fatalf("plan %v does not join all tables", p.Plan)
		}
		if seen[p.Plan.Shape()] {
			t.Fatalf("duplicate plan %v", p.Plan)
		}
		seen[p.Plan.Shape()] = true
	}
}

func TestSelingerMatchesExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		schema, model, algebra, _ := testSetup(t, 4, 1, workload.Chain, seed)
		plans := EnumerateAll(schema, model, algebra, true)
		for _, xv := range []float64{0.05, 0.5, 0.95} {
			x := geometry.Vector{xv}
			for metric := 0; metric < 2; metric++ {
				_, got := Selinger(schema, model, algebra, x, metric, true)
				want := math.Inf(1)
				for _, p := range plans {
					if c := algebra.Eval(p.Cost, x)[metric]; c < want {
						want = c
					}
				}
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Errorf("seed %d x=%v metric %d: selinger=%v exhaustive=%v", seed, xv, metric, got, want)
				}
			}
		}
	}
}

func TestParetoMQMatchesExhaustiveFront(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		schema, model, algebra, _ := testSetup(t, 4, 1, workload.Star, seed)
		plans := EnumerateAll(schema, model, algebra, true)
		for _, xv := range []float64{0.1, 0.7} {
			x := geometry.Vector{xv}
			front := TrueFrontAt(plans, algebra, x)
			mq := ParetoMQ(schema, model, algebra, x, true)
			// Every true front vector must be matched (weakly dominated)
			// by some MQ plan, and every MQ plan must be on the front.
			for _, f := range front {
				matched := false
				for _, vp := range mq {
					if WeaklyDominates(vp.Vec, f) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("seed %d x=%v: front point %v not covered by MQ result", seed, xv, f)
				}
			}
			for _, vp := range mq {
				for _, p := range plans {
					c := algebra.Eval(p.Cost, x)
					if WeaklyDominates(c, vp.Vec) && !c.Equal(vp.Vec, 1e-9) {
						t.Errorf("seed %d x=%v: MQ kept dominated plan %v (%v beaten by %v)",
							seed, xv, vp.Plan, vp.Vec, c)
					}
				}
			}
		}
	}
}

func TestPQSingleMetricCoversOptimum(t *testing.T) {
	schema, model, algebra, ctx := testSetup(t, 3, 1, workload.Chain, 7)
	for metric := 0; metric < 2; metric++ {
		set := PQSingleMetric(schema, model, ctx, metric, true)
		if len(set) == 0 {
			t.Fatalf("metric %d: empty PQ set", metric)
		}
		// At every sampled parameter point, the PQ set must contain a
		// plan achieving the Selinger optimum for that metric.
		for _, xv := range []float64{0.05, 0.35, 0.65, 0.95} {
			x := geometry.Vector{xv}
			_, want := Selinger(schema, model, algebra, x, metric, true)
			best := math.Inf(1)
			for _, p := range set {
				if c := algebra.Eval(p.Cost, x)[metric]; c < best {
					best = c
				}
			}
			if best > want+1e-6*(1+want) {
				t.Errorf("metric %d x=%v: PQ best %v, optimum %v", metric, xv, best, want)
			}
		}
	}
}

func TestBlowupInstance(t *testing.T) {
	const k, mStar = 20, 5
	alts, space := BlowupInstance(k, mStar)
	if len(alts) != k {
		t.Fatalf("got %d alternatives, want %d", len(alts), k)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	algebra := core.NewPWLAlgebra(ctx, 2)

	// MPQ keeps exactly p1..pmStar.
	schema := core.StaticSchema(1, []float64{0}, []float64{1})
	model := &core.StaticModel{ParamSpace: space, Metrics: []string{"time", "fees"}, Plans: alts}
	res, err := core.OptimizeCtx(context.Background(), schema, model, core.DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if len(res.Plans) != mStar {
		t.Errorf("MPQ result size = %d, want %d", len(res.Plans), mStar)
	}

	// The PQ fee-as-parameter encoding keeps all k plans.
	pqSize := PQEncodedSetSize(alts, algebra, geometry.Vector{0.5})
	if pqSize != k {
		t.Errorf("PQ-encoded size = %d, want %d", pqSize, k)
	}
	// The blow-up factor grows with k (arbitrary factor, Section 1.1).
	if ratio := float64(pqSize) / float64(len(res.Plans)); ratio < 3.9 {
		t.Errorf("blow-up ratio = %v, want ~%v", ratio, float64(k)/float64(mStar))
	}
}
