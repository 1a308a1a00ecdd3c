package bench

import (
	"context"
	"fmt"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/selection"
)

// PicksMode is the pick-throughput experiment (mpqbench -picks): per
// spec, prepare the exact plan set once, build the point-location
// index, verify that all four selection policies return byte-identical
// results through the index and through the linear scan at random
// points, and measure both paths' per-pick latency. It emits a
// "linear" and an "index" row sharing the prepare's counts.
func PicksMode() Mode {
	return Mode{Name: "picks", Steps: []string{"linear", "index"}, run: runPicks}
}

func runPicks(ctx context.Context, cfg RunConfig, spec Spec) ([]JSONCase, error) {
	t, err := prepareTier(ctx, cfg.workload(spec), 0)
	if err != nil {
		return nil, err
	}
	ix, err := index.Build(geometry.NewSolver(geometry.Config{}), t.space, t.cands, index.Options{})
	if err != nil {
		return nil, err
	}
	leafCands := ix.LeafCandidates(t.cands)
	// sub is the candidate subset an indexed pick scans; timing pays its
	// Locate on every pick.
	sub := func(x geometry.Vector) []selection.Candidate {
		if leaf, _, ok := ix.Locate(x); ok {
			return leafCands[leaf]
		}
		return t.cands
	}
	points, err := cfg.points(t.space, spec)
	if err != nil {
		return nil, err
	}
	params := newPolicyParams(t.metrics)

	// Verification sweep: all four policies, byte-identical results
	// (including errors) on both paths.
	for _, x := range points {
		for p := 0; p < numPickPolicies; p++ {
			lin, linErr := params.runPolicy(t.cands, x, p)
			idx, idxErr := params.runPolicy(sub(x), x, p)
			if fmt.Sprint(lin, linErr) != fmt.Sprint(idx, idxErr) {
				return nil, fmt.Errorf("policy %d at %v: index result %v (%v) differs from linear %v (%v)",
					p, x, idx, idxErr, lin, linErr)
			}
		}
	}

	ns, err := timeBest(len(points)*numPickPolicies,
		pickSweep(points, func(x geometry.Vector, p int) { params.runPolicy(t.cands, x, p) }),
		pickSweep(points, func(x geometry.Vector, p int) { params.runPolicy(sub(x), x, p) }))
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if ns[1] > 0 {
		speedup = float64(ns[0]) / float64(ns[1])
	}
	cfg.logf("picks %s cands=%d leaves=%d avgLeaf=%.1f build=%v linear=%v/pick index=%v/pick speedup=%.1fx\n",
		spec, len(t.cands), ix.Leaves(), ix.AvgLeafCandidates(), ix.BuildTime(),
		time.Duration(ns[0]), time.Duration(ns[1]), speedup)
	return []JSONCase{
		specRow(spec, t.stats, len(points), ns[0]),
		specRow(spec, t.stats, len(points), ns[1]),
	}, nil
}
