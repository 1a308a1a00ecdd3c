package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/selection"
)

// EpsilonMode is the ε-approximation experiment (mpqbench -epsilon):
// per spec, prepare the exact plan set as the reference (whether or not
// 0 is among the factors) and one tier per factor, certify each tier's
// served frontier against the exact one at random points, and report
// the plan-set and LP savings the factor bought. It emits one
// "eps=<ε>" row per factor in ascending order, timed by the tier's
// per-pick latency. ε = 0 rows gate on exact counts (an exact row
// certifies against itself as exactly 1); ε > 0 rows gate on the
// certified regret staying within (1+ε).
func EpsilonMode(epsilons []float64) Mode {
	eps := append([]float64(nil), epsilons...)
	sort.Float64s(eps)
	m := Mode{Name: "epsilon"}
	for _, e := range eps {
		m.Steps = append(m.Steps, fmt.Sprintf("eps=%g", e))
	}
	m.run = func(ctx context.Context, cfg RunConfig, spec Spec) ([]JSONCase, error) {
		tiers, points, err := certifiedTiers(ctx, cfg, spec, eps)
		if err != nil {
			return nil, err
		}
		params := newPolicyParams(tiers[0].metrics)
		rows := make([]JSONCase, len(tiers))
		for i, t := range tiers {
			ns, err := timeBest(len(points)*numPickPolicies,
				pickSweep(points, func(x geometry.Vector, p int) { params.runPolicy(t.cands, x, p) }))
			if err != nil {
				return nil, err
			}
			rows[i] = t.row(spec, len(points), ns[0])
			cfg.logf("epsilon %s eps=%-5g cands=%-4d regret=%.6f planRed=%.1f%% lpRed=%.1f%% pick=%v\n",
				spec, t.epsilon, len(t.cands), t.regret, 100*t.planRed, 100*t.lpRed, time.Duration(ns[0]))
		}
		return rows, nil
	}
	return m
}

// certifiedTier is one precision tier of a spec with its certificate
// against the exact tier.
type certifiedTier struct {
	*tier
	epsilon float64
	// regret is the certified approximation quality: over all sampled
	// points and all exact-frontier choices, the largest per-metric
	// cost ratio of the best answer of this tier to the exact answer.
	// The ε-dominance contract bounds it by (1+ε).
	regret float64
	// planRed and lpRed are the fractions of the exact tier's final
	// plans and solved LPs this tier avoided.
	planRed, lpRed float64
}

// certifiedTiers prepares spec at each factor in order, plus the exact
// tier when 0 is not among them, and certifies every tier against the
// exact one at random points.
func certifiedTiers(ctx context.Context, cfg RunConfig, spec Spec, epsilons []float64) ([]certifiedTier, []geometry.Vector, error) {
	wl := cfg.workload(spec)
	tiers := make([]certifiedTier, len(epsilons))
	var exact *tier
	for i, eps := range epsilons {
		t, err := prepareTier(ctx, wl, eps)
		if err != nil {
			return nil, nil, fmt.Errorf("eps=%g: %w", eps, err)
		}
		tiers[i] = certifiedTier{tier: t, epsilon: eps}
		if eps == 0 {
			exact = t
		}
	}
	if exact == nil {
		t, err := prepareTier(ctx, wl, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("exact reference: %w", err)
		}
		exact = t
	}
	points, err := cfg.points(exact.space, spec)
	if err != nil {
		return nil, nil, err
	}
	for i := range tiers {
		t := &tiers[i]
		if t.regret, err = certifyRegret(exact.cands, t.cands, points); err != nil {
			return nil, nil, fmt.Errorf("eps=%g: %w", t.epsilon, err)
		}
		if n := len(exact.cands); n > 0 {
			t.planRed = 1 - float64(len(t.cands))/float64(n)
		}
		if lps := exact.stats.Geometry.LPs; lps > 0 {
			t.lpRed = 1 - float64(t.stats.Geometry.LPs)/float64(lps)
		}
	}
	return tiers, points, nil
}

func (t certifiedTier) row(spec Spec, points int, ns int64) JSONCase {
	c := specRow(spec, t.stats, points, ns)
	c.Epsilon = t.epsilon
	c.MaxRegret = t.regret
	c.PlanReduction = t.planRed
	c.LPReduction = t.lpRed
	return c
}

// certifyRegret measures the approximation quality the ε tier actually
// delivers: at every sampled point, for every exact-frontier choice,
// the ε frontier must offer a choice within a bounded per-metric cost
// ratio. The returned value is the worst such ratio — the empirical
// counterpart of the (1+ε) contract, computed from the served
// candidate sets themselves so the certificate covers the full save /
// load / select path. A point where either frontier is empty is an
// error.
func certifyRegret(exact, approx []selection.Candidate, points []geometry.Vector) (float64, error) {
	worst := 1.0
	for _, x := range points {
		ref := selection.Frontier(exact, x)
		if len(ref) == 0 {
			// Without a reference answer the point certifies nothing,
			// and an exact tier with no plan at an in-space point is a
			// relevance-region hole in its own right.
			return 0, fmt.Errorf("exact frontier empty at %v", x)
		}
		got := selection.Frontier(approx, x)
		if len(got) == 0 {
			return 0, fmt.Errorf("ε frontier empty at %v", x)
		}
		for _, rc := range ref {
			best := 0.0
			for i, gc := range got {
				r := regretRatio(gc.Cost, rc.Cost)
				if i == 0 || r < best {
					best = r
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	return worst, nil
}

// regretRatio is the largest per-metric cost ratio of a candidate
// answer over a reference answer, with near-zero references guarded:
// matching a (numerically) free reference costs nothing, failing to
// match one is unbounded regret.
func regretRatio(cand, ref geometry.Vector) float64 {
	const tiny = 1e-12
	worst := 0.0
	for m := range ref {
		var r float64
		switch {
		case ref[m] > tiny:
			r = cand[m] / ref[m]
		case cand[m] > tiny:
			r = 1e18
		default:
			r = 1
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}
