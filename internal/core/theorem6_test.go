package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// randomLinearAlternatives draws plan cost functions with independent
// random linear weights, the probabilistic model of Theorem 6.
func randomLinearAlternatives(rng *rand.Rand, space *geometry.Polytope, nX, nM, plans int) []Alternative {
	alts := make([]Alternative, 0, plans)
	for p := 0; p < plans; p++ {
		comps := make([]*pwl.Function, nM)
		for m := 0; m < nM; m++ {
			w := geometry.NewVector(nX)
			for i := range w {
				w[i] = rng.Float64()
			}
			comps[m] = pwl.Linear(space, w, rng.Float64())
		}
		alts = append(alts, Alternative{Op: fmt.Sprintf("p%d", p), Cost: pwl.NewMulti(comps...)})
	}
	return alts
}

// TestTheorem6Bound checks the paper's complexity result empirically:
// with random independent cost weights, the expected number of Pareto
// plans per table set is at most 2^((nX+1)*nM). The empirical mean over
// several seeds must respect the bound (the bound is loose, so this
// holds with large margin), and the kept plans must be exactly the
// plans not dominated across the parameter space.
func TestTheorem6Bound(t *testing.T) {
	cases := []struct{ nX, nM int }{
		{1, 1}, {1, 2}, {2, 2},
	}
	const plans = 48
	const seeds = 8
	for _, tc := range cases {
		bound := 1 << uint((tc.nX+1)*tc.nM)
		total := 0
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lo := make([]float64, tc.nX)
			hi := make([]float64, tc.nX)
			for i := range hi {
				hi[i] = 1
			}
			space := geometry.Box(lo, hi)
			alts := randomLinearAlternatives(rng, space, tc.nX, tc.nM, plans)
			schema := StaticSchema(tc.nX, lo, hi)
			model := &StaticModel{ParamSpace: space, Metrics: metricNames(tc.nM), Plans: alts}
			res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
			if err != nil {
				t.Fatalf("nX=%d nM=%d seed=%d: %v", tc.nX, tc.nM, seed, err)
			}
			total += len(res.Plans)
		}
		mean := float64(total) / seeds
		if mean > float64(bound) {
			t.Errorf("nX=%d nM=%d: mean Pareto plans %.1f exceeds Theorem 6 bound %d",
				tc.nX, tc.nM, mean, bound)
		}
		t.Logf("nX=%d nM=%d: mean Pareto plans %.1f (Theorem 6 bound %d)", tc.nX, tc.nM, mean, bound)
	}
}

// TestTheorem6MoreMetricsMorePlans: adding a metric cannot shrink (in
// expectation) the Pareto set — single-metric optimization keeps ~1
// plan while two metrics keep several.
func TestTheorem6MoreMetricsMorePlans(t *testing.T) {
	const plans = 40
	count := func(nM int) int {
		total := 0
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			space := geometry.Interval(0, 1)
			alts := randomLinearAlternatives(rng, space, 1, nM, plans)
			schema := StaticSchema(1, []float64{0}, []float64{1})
			model := &StaticModel{ParamSpace: space, Metrics: metricNames(nM), Plans: alts}
			res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			total += len(res.Plans)
		}
		return total
	}
	one := count(1)
	two := count(2)
	if two <= one {
		t.Errorf("plans with 2 metrics (%d) not larger than with 1 metric (%d)", two, one)
	}
}
