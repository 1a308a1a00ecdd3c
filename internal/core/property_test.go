package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// randStaticAlternatives builds random piecewise-linear plan
// alternatives over [0,1]^dim: each metric is a PWL interpolation of a
// random quadratic.
func randStaticAlternatives(r *rand.Rand, space *geometry.Polytope, dim, nM, plans int) []Alternative {
	lo := geometry.NewVector(dim)
	hi := geometry.NewVector(dim)
	for i := range hi {
		hi[i] = 1
	}
	grid := pwl.NewGrid(lo, hi, 1+r.Intn(2))
	alts := make([]Alternative, 0, plans)
	for p := 0; p < plans; p++ {
		comps := make([]*pwl.Function, nM)
		for m := 0; m < nM; m++ {
			a := r.Float64()*4 - 2
			b := r.Float64()*4 - 2
			c := r.Float64() * 3
			f := func(x geometry.Vector) float64 {
				s := c
				for i := range x {
					s += a*x[i]*x[i] + b*x[i]
				}
				return s
			}
			comps[m] = grid.Interpolate(f).WithCover(space)
		}
		alts = append(alts, Alternative{Op: fmt.Sprintf("p%d", p), Cost: pwl.NewMulti(comps...)})
	}
	return alts
}

// TestStaticParetoProperty is the quick-check form of Theorem 3 for
// static plan sets: at every sampled parameter point, every alternative
// must be weakly dominated by some kept plan.
func TestStaticParetoProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(2)
		nM := 1 + r.Intn(2)
		plans := 3 + r.Intn(8)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := range hi {
			hi[i] = 1
		}
		space := geometry.Box(lo, hi)
		alts := randStaticAlternatives(r, space, dim, nM, plans)
		schema := StaticSchema(dim, lo, hi)
		model := &StaticModel{ParamSpace: space, Metrics: metricNames(nM), Plans: alts}
		res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
		if err != nil {
			return false
		}
		if len(res.Plans) == 0 || len(res.Plans) > plans {
			return false
		}
		for _, x := range geometry.SamplePointsInBox(geometry.Vector(lo), geometry.Vector(hi), 4, 20) {
			for _, alt := range alts {
				av, _ := alt.Cost.(*pwl.Multi).Eval(x)
				covered := false
				for _, kept := range res.Plans {
					kv, _ := kept.Cost.(*pwl.Multi).Eval(x)
					dominates := true
					for m := range kv {
						if kv[m] > av[m]+1e-6*(1+abs(av[m])) {
							dominates = false
							break
						}
					}
					if dominates {
						covered = true
						break
					}
				}
				if !covered {
					t.Logf("seed %d: alternative %s uncovered at %v", seed, alt.Op, x)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestRelevanceRegionsCoverSpace: at every sampled point, at least one
// kept plan must be relevant — the relevance mapping property of
// Section 2 (for each x some plan with x in its RR dominates).
func TestRelevanceRegionsCoverSpace(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(2)
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := range hi {
			hi[i] = 1
		}
		space := geometry.Box(lo, hi)
		alts := randStaticAlternatives(r, space, dim, 2, 4+r.Intn(6))
		schema := StaticSchema(dim, lo, hi)
		model := &StaticModel{ParamSpace: space, Metrics: metricNames(2), Plans: alts}
		res, err := OptimizeCtx(context.Background(), schema, model, DefaultOptions())
		if err != nil {
			return false
		}
		// Interior sample points (strictly inside the box) must be in
		// some relevance region.
		pts := geometry.SamplePointsInBox(
			geometry.Vector(lo).Add(uniformVec(dim, 0.05)),
			geometry.Vector(hi).Sub(uniformVec(dim, 0.05)), 3, 9)
		for _, x := range pts {
			found := false
			for _, kept := range res.Plans {
				if kept.RR.Contains(x, 1e-9) {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: no relevant plan at %v", seed, x)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

func uniformVec(dim int, v float64) geometry.Vector {
	out := geometry.NewVector(dim)
	for i := range out {
		out[i] = v
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
