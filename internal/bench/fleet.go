package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mpq/internal/fleet"
	"mpq/internal/serve"
)

// FleetMode is the fleet-serving experiment (mpqbench -fleet): per
// spec, the given number of in-process servers share one fresh on-disk
// plan-set store; the first server computes and publishes, the rest
// must be served from the shared store, and all of them then pick
// concurrently against the one prepared set. The run fails when fewer
// than (N−1)/N of the fleet's Prepares were served from the shared
// store — the amortization the subsystem exists for. It emits one
// "servers=<N>" row carrying the single compute's counts and the exact
// shared-store hit rate (both gated), timed by the fleet-concurrent
// per-pick latency.
func FleetMode(servers int) Mode {
	return Mode{
		Name:  "fleet",
		Steps: []string{fmt.Sprintf("servers=%d", servers)},
		run: func(ctx context.Context, cfg RunConfig, spec Spec) ([]JSONCase, error) {
			return runFleet(ctx, cfg, spec, servers)
		},
	}
}

func runFleet(ctx context.Context, cfg RunConfig, spec Spec, n int) ([]JSONCase, error) {
	if n < 2 {
		return nil, fmt.Errorf("fleet needs at least 2 servers")
	}
	// A fresh directory per spec: a repeated spec must measure a cold
	// store again, not trip over its predecessor's documents.
	dir, err := os.MkdirTemp("", "mpqfleet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	shared, err := fleet.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	tpl := serve.Template{Workload: cfg.workload(spec)}

	servers := make([]*serve.Server, n)
	for i := range servers {
		servers[i] = serve.New(serve.Options{Workers: 1, Index: true, Shared: shared})
		defer servers[i].Close()
	}

	// Server 0 computes and publishes; every sibling must be served
	// from the shared store.
	prep0, err := servers[0].Prepare(ctx, tpl)
	if err != nil {
		return nil, err
	}
	if prep0.Cached {
		return nil, fmt.Errorf("first Prepare was cached — stale shared dir")
	}
	key := prep0.Key
	for i := 1; i < len(servers); i++ {
		prep, err := servers[i].Prepare(ctx, tpl)
		if err != nil {
			return nil, err
		}
		if prep.Key != key {
			return nil, fmt.Errorf("server %d computed key %s, server 0 %s", i, prep.Key, key)
		}
	}
	var prepares, sharedHits int64
	for _, s := range servers {
		st := s.Stats()
		prepares += st.Prepares
		sharedHits += st.SharedHits
	}
	hitRate := 0.0
	if prepares > 0 {
		hitRate = float64(sharedHits) / float64(prepares)
	}
	// The acceptance bar: at most one compute per fleet, i.e. at least
	// (N−1)/N of the Prepares served from the shared store.
	if want := float64(n-1) / float64(n); hitRate < want-1e-9 {
		return nil, fmt.Errorf("shared-store hit rate %.3f below (N-1)/N = %.3f (%d/%d prepares)",
			hitRate, want, sharedHits, prepares)
	}

	// Sample points and verify cross-server byte-identity before
	// timing: every server must answer every policy identically.
	ps, ok := servers[0].PlanSet(key)
	if !ok {
		return nil, fmt.Errorf("server 0 lost its plan set")
	}
	points, err := cfg.points(ps.Space, spec)
	if err != nil {
		return nil, err
	}
	params := newPolicyParams(len(ps.Metrics))
	verify := points
	if len(verify) > 16 {
		verify = verify[:16]
	}
	for _, x := range verify {
		var first []string
		for si, s := range servers {
			var lines []string
			for p := 0; p < numPickPolicies; p++ {
				res, err := s.Pick(ctx, params.pickRequest(key, x, p))
				lines = append(lines, fmt.Sprintf("%v|%v", res.Choices, err))
			}
			if si == 0 {
				first = lines
				continue
			}
			if fmt.Sprint(lines) != fmt.Sprint(first) {
				return nil, fmt.Errorf("server %d picks at %v differ from server 0:\n  0: %v\n  %d: %v",
					si, x, first, si, lines)
			}
		}
	}

	// Throughput: all servers batch-pick the full point set
	// concurrently.
	batch := serve.PickBatchRequest{
		Key:     key,
		Points:  points,
		Policy:  serve.PolicyWeightedSum,
		Weights: params.weights,
	}
	ns, err := timeBest(n*len(points), func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, len(servers))
		for _, s := range servers {
			wg.Add(1)
			go func(s *serve.Server) {
				defer wg.Done()
				if _, err := s.PickBatch(ctx, batch); err != nil {
					errCh <- err
				}
			}(s)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	})
	if err != nil {
		return nil, err
	}
	cpus := runtime.NumCPU()
	cfg.logf("fleet %s servers=%d cands=%d hit-rate=%.3f (%d/%d shared) pick=%v/pick cpus=%d\n",
		spec, n, prep0.NumPlans, hitRate, sharedHits, prepares, time.Duration(ns[0]), cpus)
	row := specRow(spec, prep0.Stats, n, ns[0])
	// NumCPU is informational: concurrent fleet throughput on a 1-CPU
	// box is a serialization measurement.
	row.NumCPU = cpus
	row.SharedHitRate = hitRate
	return []JSONCase{row}, nil
}
