package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/faultfs"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
)

// chaosSeed returns the fault schedule's seed: MPQ_CHAOS_SEED when
// set (CI runs one fixed and one randomized seed), else a fixed
// default so local runs reproduce.
func chaosSeed(t *testing.T) int64 {
	if s := os.Getenv("MPQ_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MPQ_CHAOS_SEED=%q: %v", s, err)
		}
		return v
	}
	return 20140901 // the paper's VLDB volume date; any fixed value works
}

// flakyPlanSetServer serves a server's documents like cmd/mpqserve
// does, but answers 500 while killed — a peer death the fleet must
// ride through.
type flakyPlanSetServer struct {
	ts   *httptest.Server
	dead atomic.Bool
}

func newFlakyPlanSetServer(s *Server) *flakyPlanSetServer {
	f := &flakyPlanSetServer{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.dead.Load() {
			http.Error(w, "peer down", http.StatusInternalServerError)
			return
		}
		key := r.URL.Path[len(fleet.PlanSetPath):]
		doc, err := s.Document(key)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(fleet.DocHashHeader, fleet.ContentHash(doc))
		w.Write(doc)
	}))
	return f
}

// TestFleetChaos is the failure-domain stress test (run under -race in
// CI): a three-server fleet over a fault-injected shared store and
// flaky peers serves a randomized mix of prepares, picks, and batch
// picks — some with live contexts, some cancelled, some under
// millisecond deadlines — while a killer goroutine takes peers up and
// down. The invariant: every pick that *succeeds* is byte-identical to
// the sequential reference path, no matter which failures surrounded
// it; failures themselves must be one of the declared, counted kinds.
func TestFleetChaos(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (override with MPQ_CHAOS_SEED)", seed)

	templates := []Template{testTemplate(21), testTemplate(33), testTemplate(7)}

	// Sequential ground truth, one worker, no serving stack.
	expected := make([]map[string][]string, len(templates))
	for i, tpl := range templates {
		expected[i] = sequentialPicks(t, tpl)
	}

	// The shared store sits on a fault-injected filesystem: reads and
	// writes fail or stall according to the seeded schedule.
	inj := faultfs.NewInjector(nil, faultfs.Config{
		Seed:        seed,
		ErrorRate:   0.08,
		Latency:     200 * time.Microsecond,
		LatencyRate: 0.2,
	})
	shared, err := fleet.NewDirStoreFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}

	// Three servers with different source chains: s0 computes and
	// publishes, s1 adds peer fetches, s2 has *only* peers — its cache
	// misses must ride through peer deaths by recomputing.
	s0 := New(Options{Workers: 2, Index: true, Shared: shared})
	defer s0.Close()
	f0 := newFlakyPlanSetServer(s0)
	defer f0.ts.Close()

	peerOpts := fleet.PeerOptions{
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Seed:             seed,
	}
	s1 := New(Options{Workers: 2, Index: true, Shared: shared, CacheBytes: 10 << 10,
		Peers: fleet.NewPeerClientOptions([]string{f0.ts.URL}, peerOpts)})
	defer s1.Close()
	f1 := newFlakyPlanSetServer(s1)
	defer f1.ts.Close()

	// s2's cache holds two of the three documents, so picks keep
	// evicting and reloading — through peers that keep dying.
	s2 := New(Options{Workers: 2, Index: true, CacheBytes: 10 << 10,
		Peers: fleet.NewPeerClientOptions([]string{f0.ts.URL, f1.ts.URL}, peerOpts)})
	defer s2.Close()

	servers := []*Server{s0, s1, s2}
	flaky := []*flakyPlanSetServer{f0, f1}

	// Every server prepares every template once with a live context so
	// all keys exist fleet-wide (retrying through injected I/O errors).
	keys := make([]string, len(templates))
	for _, s := range servers {
		for i, tpl := range templates {
			var prep PrepareResult
			var err error
			for attempt := 0; attempt < 20; attempt++ {
				prep, err = s.Prepare(context.Background(), tpl)
				if err == nil {
					break
				}
			}
			if err != nil {
				t.Fatalf("seeding Prepare: %v", err)
			}
			keys[i] = prep.Key
		}
	}

	// The killer flips peers dead/alive on the seeded schedule.
	stopKiller := make(chan struct{})
	var killerWG sync.WaitGroup
	killerWG.Add(1)
	go func() {
		defer killerWG.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
		for {
			select {
			case <-stopKiller:
				for _, f := range flaky {
					f.dead.Store(false)
				}
				return
			case <-time.After(time.Duration(1+rng.Intn(5)) * time.Millisecond):
				f := flaky[rng.Intn(len(flaky))]
				f.dead.Store(rng.Intn(2) == 0)
			}
		}
	}()

	// Client goroutines issue a randomized mix of operations. Allowed
	// failures are the declared kinds only; successes must match the
	// sequential reference exactly.
	allowedErr := func(err error) bool {
		return errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrQueueFull) ||
			errors.Is(err, ErrUnknownPlanSet) ||
			errors.Is(err, ErrInternal)
	}
	const clients = 6
	const opsPerClient = 40
	var wg sync.WaitGroup
	var successes, failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for op := 0; op < opsPerClient; op++ {
				s := servers[rng.Intn(len(servers))]
				ti := rng.Intn(len(templates))
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(4) {
				case 0: // cancelled before the call
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1: // tight deadline — may or may not make it
					ctx, cancel = context.WithTimeout(ctx, time.Duration(100+rng.Intn(3000))*time.Microsecond)
				}
				switch rng.Intn(3) {
				case 0:
					_, err := s.Prepare(ctx, templates[ti])
					if err != nil && !allowedErr(err) {
						t.Errorf("client %d op %d: Prepare failed oddly: %v", c, op, err)
					}
				case 1:
					x := testPoints[rng.Intn(len(testPoints))]
					res, err := s.Pick(ctx, PickRequest{Key: keys[ti], Point: x, Policy: PolicyFrontier})
					if err != nil {
						failures.Add(1)
						if !allowedErr(err) {
							t.Errorf("client %d op %d: Pick failed oddly: %v", c, op, err)
						}
					} else {
						successes.Add(1)
						got := renderAll(res.Choices)
						want := expected[ti][expectKey("frontier", x)]
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("client %d op %d: pick diverged from the sequential path:\n got %v\nwant %v", c, op, got, want)
						}
					}
				default:
					bres, err := s.PickBatch(ctx, PickBatchRequest{
						Key: keys[ti], Points: testPoints, Policy: PolicyFrontier,
					})
					if err != nil {
						failures.Add(1)
						if !allowedErr(err) {
							t.Errorf("client %d op %d: PickBatch failed oddly: %v", c, op, err)
						}
					} else {
						successes.Add(1)
						for pi, x := range testPoints {
							got := renderAll(bres.Choices[pi])
							want := expected[ti][expectKey("frontier", x)]
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Errorf("client %d op %d: batch pick at %v diverged:\n got %v\nwant %v", c, op, x, got, want)
							}
						}
					}
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(stopKiller)
	killerWG.Wait()

	if successes.Load() == 0 {
		t.Error("chaos produced zero successful picks — the schedule is too hostile to prove anything")
	}
	t.Logf("picks: %d succeeded, %d failed (allowed kinds)", successes.Load(), failures.Load())

	// Peers came back up: a fresh pick on every server must succeed
	// (bounded retries through residual injected store errors). Retries
	// are spaced by the breaker cooldown: a server whose only source is
	// its peers skips every peer while their breakers are still open
	// from the killer's last round, so back-to-back attempts could all
	// land inside one cooldown.
	for si, s := range servers {
		for ti := range templates {
			var err error
			for attempt := 0; attempt < 20; attempt++ {
				if attempt > 0 {
					time.Sleep(peerOpts.BreakerCooldown)
				}
				_, err = s.Pick(context.Background(), PickRequest{
					Key: keys[ti], Point: geometry.Vector{0.5}, Policy: PolicyFrontier,
				})
				if err == nil {
					break
				}
			}
			if err != nil {
				t.Errorf("server %d never recovered for template %d: %v", si, ti, err)
			}
		}
	}

	// Accounting: failure counters landed in Stats.
	for si, s := range servers {
		st := s.Stats()
		var ps fleet.PeerStats
		if s.opts.Peers != nil {
			ps = s.opts.Peers.Stats()
		}
		t.Logf("server %d: cancels=%d deadlines=%d peerRetries=%d breakerTrips=%d quarantined=%d reloads=%d",
			si, st.Cancellations, st.DeadlineExpiries, ps.Retries, ps.BreakerTrips, st.QuarantinedBlobs, st.Reloads)
	}
}
