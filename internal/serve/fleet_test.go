package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpq/internal/core"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// pickAllPolicies runs every selection policy at x and renders the
// results (including errors) so responses compare byte-identically.
func pickAllPolicies(t *testing.T, s *Server, key string, x geometry.Vector, metrics int) []string {
	t.Helper()
	weights := make([]float64, metrics)
	weights[0] = 1
	for i := 1; i < metrics; i++ {
		weights[i] = 10000
	}
	order := make([]int, metrics)
	for i := range order {
		order[i] = metrics - 1 - i
	}
	reqs := []PickRequest{
		{Key: key, Point: x, Policy: PolicyFrontier},
		{Key: key, Point: x, Policy: PolicyWeightedSum, Weights: weights},
		{Key: key, Point: x, Policy: PolicyMinimizeSubjectTo, Minimize: 0,
			Bounds: []selection.Bound{{Metric: metrics - 1, Max: 1e300}}},
		{Key: key, Point: x, Policy: PolicyLexicographic, Order: order},
	}
	out := make([]string, 0, len(reqs))
	for _, req := range reqs {
		res, err := pickRetrying(s, req)
		out = append(out, fmt.Sprintf("%v | err=%v", renderAll(res.Choices), err))
	}
	return out
}

// planSetServer exposes a server's prepared documents the way
// cmd/mpqserve does, for peer fetches in tests.
func planSetServer(s *Server) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, fleet.PlanSetPath)
		doc, err := s.Document(key)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(fleet.DocHashHeader, fleet.ContentHash(doc))
		w.Write(doc)
	}))
}

// fleetShapeCases are the acceptance property test's workloads: all
// four join-graph shapes, with a two-parameter clique for the
// multi-dimensional path.
var fleetShapeCases = []struct {
	cfg    workload.Config
	points []geometry.Vector
}{
	{workload.Config{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 21},
		[]geometry.Vector{{0.05}, {0.4}, {0.95}}},
	{workload.Config{Tables: 4, Params: 1, Shape: workload.Star, Seed: 33},
		[]geometry.Vector{{0.1}, {0.5}, {0.9}}},
	{workload.Config{Tables: 4, Params: 1, Shape: workload.Cycle, Seed: 7},
		[]geometry.Vector{{0.2}, {0.6}, {0.99}}},
	{workload.Config{Tables: 4, Params: 2, Shape: workload.Clique, Seed: 5},
		[]geometry.Vector{{0.2, 0.3}, {0.5, 0.5}, {0.9, 0.1}}},
}

// TestFleetPickEquivalence is the fleet acceptance property test: for
// every join-graph shape and both precision tiers (exact and
// ε-approximate), Pick results must be byte-identical whether the plan
// set was computed locally, loaded from the shared on-disk store, or
// fetched from an HTTP peer — across all four selection policies (run
// under -race in CI).
func TestFleetPickEquivalence(t *testing.T) {
	for _, tc := range fleetShapeCases {
		for _, eps := range []float64{0, 0.05} {
			tc, eps := tc, eps
			t.Run(fmt.Sprintf("%s-%dp/eps=%g", tc.cfg.Shape, tc.cfg.Params, eps), func(t *testing.T) {
				sharedA, err := fleet.NewDirStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				tpl := Template{Workload: tc.cfg, Epsilon: &eps}

				// Server A computes and publishes to the shared store.
				a := New(Options{Workers: 2, Index: true, Shared: sharedA})
				defer a.Close()
				prepA, err := a.Prepare(context.Background(), tpl)
				if err != nil {
					t.Fatal(err)
				}
				if prepA.Cached {
					t.Fatal("first Prepare reported cached")
				}
				if st := a.Stats(); st.SharedPuts != 1 {
					t.Errorf("compute server published %d documents, want 1", st.SharedPuts)
				}

				// Server B loads from the shared store (no optimization).
				b := New(Options{Workers: 2, Index: true, Shared: sharedA})
				defer b.Close()
				prepB, err := b.Prepare(context.Background(), tpl)
				if err != nil {
					t.Fatal(err)
				}
				if !prepB.Cached || prepB.Key != prepA.Key {
					t.Errorf("shared-store Prepare: cached=%v key match=%v", prepB.Cached, prepB.Key == prepA.Key)
				}
				if st := b.Stats(); st.SharedHits != 1 {
					t.Errorf("shared hits = %d, want 1", st.SharedHits)
				}

				// Server C fetches from peer A over HTTP (its own shared dir
				// starts empty) and re-publishes the fetched document there.
				peerSrv := planSetServer(a)
				defer peerSrv.Close()
				sharedC, err := fleet.NewDirStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				c := New(Options{
					Workers: 2, Index: true,
					Shared: sharedC,
					Peers:  fleet.NewPeerClient([]string{peerSrv.URL}, 0),
				})
				defer c.Close()
				prepC, err := c.Prepare(context.Background(), tpl)
				if err != nil {
					t.Fatal(err)
				}
				if !prepC.Cached || prepC.Key != prepA.Key {
					t.Errorf("peer Prepare: cached=%v key match=%v", prepC.Cached, prepC.Key == prepA.Key)
				}
				if st := c.Stats(); st.PeerHits != 1 || st.SharedPuts != 1 {
					t.Errorf("peer server stats: peer hits = %d (want 1), shared puts = %d (want 1)",
						st.PeerHits, st.SharedPuts)
				}

				ps, ok := a.PlanSet(prepA.Key)
				if !ok {
					t.Fatal("compute server lost its plan set")
				}
				if ps.Epsilon != eps {
					t.Errorf("plan set epsilon = %v, want %v", ps.Epsilon, eps)
				}
				for _, x := range tc.points {
					if !ps.Space.ContainsPoint(x, 1e-9) {
						continue
					}
					got := map[string][]string{
						"local":  pickAllPolicies(t, a, prepA.Key, x, len(ps.Metrics)),
						"shared": pickAllPolicies(t, b, prepB.Key, x, len(ps.Metrics)),
						"peer":   pickAllPolicies(t, c, prepC.Key, x, len(ps.Metrics)),
					}
					for name, res := range got {
						if fmt.Sprint(res) != fmt.Sprint(got["local"]) {
							t.Errorf("%s picks at %v differ from local:\n  local: %v\n  %s: %v",
								name, x, got["local"], name, res)
						}
					}
				}
			})
		}
	}
}

// TestIndexedFootprintChargesLeafViews: the memory-accounted cache
// charges an indexed entry its document, its tree and its per-leaf
// views — the part that dominates a resident indexed plan set.
func TestIndexedFootprintChargesLeafViews(t *testing.T) {
	s := New(Options{Workers: 1, Index: true, CacheBytes: 64 << 20})
	defer s.Close()
	prep, err := s.Prepare(context.Background(), Template{Workload: workload.Config{
		Tables: 3, Params: 2, Shape: workload.Chain, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.cache.Get(prep.Key, false)
	if !ok {
		t.Fatal("prepared plan set not resident")
	}
	e := v.(*entry)
	_, views := e.idx.LeafViews(e.candidates)
	if views <= 0 || e.viewBytes != views {
		t.Fatalf("entry charges %d view bytes, LeafViews reports %d", e.viewBytes, views)
	}
	want := int64(len(e.doc)) + e.idx.MemBytes() + views
	if got := s.Stats().Cache.ResidentBytes; got != want {
		t.Errorf("resident bytes %d, want document %d + tree %d + views %d = %d",
			got, len(e.doc), e.idx.MemBytes(), views, want)
	}
}

// TestServeStatsAccountingBalance is the cache-accounting regression
// test: with a budget small enough to force evictions and a shared
// store to reload from, admitted − evicted must equal resident (bytes
// and entries) at every checkpoint, and evicted plan sets must serve
// picks again via reload.
func TestServeStatsAccountingBalance(t *testing.T) {
	shared, err := fleet.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkBalance := func(st Stats) {
		t.Helper()
		if st.Cache.AdmittedBytes-st.Cache.EvictedBytes != st.Cache.ResidentBytes {
			t.Errorf("byte accounting unbalanced: admitted %d − evicted %d != resident %d",
				st.Cache.AdmittedBytes, st.Cache.EvictedBytes, st.Cache.ResidentBytes)
		}
		if st.Cache.Admissions-st.Cache.Evictions != int64(st.Cache.ResidentEntries) {
			t.Errorf("entry accounting unbalanced: admitted %d − evicted %d != resident %d",
				st.Cache.Admissions, st.Cache.Evictions, st.Cache.ResidentEntries)
		}
	}

	// A budget of one small document (the chain-4t docs are ~4.5KB
	// each): every new template evicts the previous one.
	s := New(Options{Workers: 1, Index: true, Shared: shared, CacheBytes: 6 << 10})
	defer s.Close()
	var keys []string
	for seed := int64(21); seed < 24; seed++ {
		prep, err := s.Prepare(context.Background(), testTemplate(seed))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, prep.Key)
		checkBalance(s.Stats())
	}
	st := s.Stats()
	if st.Cache.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget across 3 templates: %+v", 6<<10, st.Cache)
	}

	// Every key — evicted or resident — still picks, via reload.
	for _, key := range keys {
		if _, err := s.Pick(context.Background(), PickRequest{Key: key, Point: testPoints[2]}); err != nil {
			t.Fatalf("pick on key %s after evictions: %v", key, err)
		}
	}
	st = s.Stats()
	checkBalance(st)
	if st.Reloads == 0 {
		t.Error("no pick-time reloads recorded despite evictions")
	}
	if st.Cache.Readmissions == 0 {
		t.Error("no re-admissions recorded despite reloads")
	}
	if st.Cache.Pinned != 0 {
		t.Errorf("pins leaked: %d", st.Cache.Pinned)
	}

	// Without any reload source, an evicted key's pick degrades to
	// ErrUnknownPlanSet (no silent recompute at pick time).
	lone := New(Options{Workers: 1, CacheBytes: 1})
	defer lone.Close()
	prepA, err := lone.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Prepare(context.Background(), testTemplate(33)); err != nil {
		t.Fatal(err)
	}
	if _, err := lone.Pick(context.Background(), PickRequest{Key: prepA.Key, Point: testPoints[0]}); !errors.Is(err, ErrUnknownPlanSet) {
		t.Errorf("pick on evicted key without sources = %v, want ErrUnknownPlanSet", err)
	}
	checkBalance(lone.Stats())
}

// TestFleetStress drives a 3-server fleet over one shared dir with
// concurrent Prepares, Picks, batches and evictions (run under -race
// in CI) and asserts every response is byte-identical to the
// single-server sequential path.
func TestFleetStress(t *testing.T) {
	shared, err := fleet.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{21, 33, 47}
	templates := make([]Template, len(seeds))
	expected := make([]map[string][]string, len(seeds))
	for i, seed := range seeds {
		templates[i] = testTemplate(seed)
		expected[i] = sequentialPicks(t, templates[i])
	}

	const nServers = 3
	servers := make([]*Server, nServers)
	for i := range servers {
		opts := Options{Workers: 2, QueueDepth: 16, Index: true, Shared: shared}
		if i > 0 {
			// Eviction pressure on the followers: every entry fights for
			// a budget sized below two documents.
			opts.CacheBytes = 6 << 10
		}
		servers[i] = New(opts)
		defer servers[i].Close()
	}

	const clients = 6
	iterations := 8
	if testing.Short() {
		iterations = 3
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients*nServers)
	for si, s := range servers {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(si, c int, s *Server) {
				defer wg.Done()
				for it := 0; it < iterations; it++ {
					i := (si + c + it) % len(templates)
					prep, err := prepareRetrying(s, templates[i])
					if err != nil {
						errCh <- fmt.Errorf("server %d client %d prepare: %w", si, c, err)
						return
					}
					x := testPoints[(c+it)%len(testPoints)]
					res, err := pickRetrying(s, PickRequest{Key: prep.Key, Point: x, Policy: PolicyFrontier})
					if err != nil {
						errCh <- fmt.Errorf("server %d client %d pick: %w", si, c, err)
						return
					}
					if want := expected[i][expectKey("frontier", x)]; fmt.Sprint(renderAll(res.Choices)) != fmt.Sprint(want) {
						errCh <- fmt.Errorf("server %d: frontier at %v = %v, sequential %v",
							si, x, renderAll(res.Choices), want)
						return
					}
					bres, err := s.PickBatch(context.Background(), PickBatchRequest{
						Key: prep.Key, Points: testPoints,
						Policy: PolicyWeightedSum, Weights: []float64{1, 10000},
					})
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						errCh <- fmt.Errorf("server %d client %d batch: %w", si, c, err)
						return
					}
					for pi, px := range testPoints {
						if want := expected[i][expectKey("weighted", px)]; fmt.Sprint(renderAll(bres.Choices[pi])) != fmt.Sprint(want) {
							errCh <- fmt.Errorf("server %d: weighted batch at %v = %v, sequential %v",
								si, px, renderAll(bres.Choices[pi]), want)
							return
						}
					}
				}
			}(si, c, s)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	var sharedHits, computes int64
	for si, s := range servers {
		st := s.Stats()
		if st.Cache.AdmittedBytes-st.Cache.EvictedBytes != st.Cache.ResidentBytes ||
			st.Cache.Admissions-st.Cache.Evictions != int64(st.Cache.ResidentEntries) {
			t.Errorf("server %d cache accounting unbalanced: %+v", si, st.Cache)
		}
		if st.Cache.Pinned != 0 {
			t.Errorf("server %d leaked %d pins", si, st.Cache.Pinned)
		}
		sharedHits += st.SharedHits
		computes += st.Prepares - st.PrepareHits - st.SharedHits - st.PrepareDiskHits - st.PeerHits
	}
	if sharedHits == 0 {
		t.Error("fleet recorded no shared-store hits")
	}
	// Each template is computed at most once per *server* (singleflight
	// plus shared store); across the fleet the shared store should keep
	// most servers from computing at all — but any interleaving computes
	// each template at most nServers times.
	if computes > int64(len(templates)*nServers) {
		t.Errorf("fleet computed %d times for %d templates", computes, len(templates))
	}
	// The shared store holds every template for future fleet members.
	hits, _, puts := shared.Stats()
	if puts < int64(len(templates)) {
		t.Errorf("shared store received %d puts, want >= %d", puts, len(templates))
	}
	_ = hits
}

// TestMalformedKeysNeverReachSources: keys that do not have the
// planSetKey shape (32 hex digits) are unknown by construction — a
// request-supplied traversal string must never be joined into a
// filesystem path or a peer URL.
func TestMalformedKeysNeverReachSources(t *testing.T) {
	dir := t.TempDir()
	// Plant a decoy where a traversal through Options.Dir would land.
	if err := os.WriteFile(filepath.Join(dir, "secret.json"), []byte(`{"v":1}`), 0o666); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "docs")
	if err := os.MkdirAll(sub, 0o777); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Dir: sub})
	defer s.Close()
	for _, key := range []string{"../secret", "..%2Fsecret", "", "UPPERCASE00000000000000000000000", "short"} {
		if _, err := s.Document(key); !errors.Is(err, ErrUnknownPlanSet) {
			t.Errorf("Document(%q) = %v, want ErrUnknownPlanSet", key, err)
		}
		if _, err := s.Pick(context.Background(), PickRequest{Key: key, Point: geometry.Vector{0.5}}); !errors.Is(err, ErrUnknownPlanSet) {
			t.Errorf("Pick(%q) = %v, want ErrUnknownPlanSet", key, err)
		}
	}
}

// TestServerDonatesIdleWorkers: with DonateWorkers on and split jobs
// forced, an idle pool worker joins the in-flight Prepare's split jobs
// and the results remain byte-identical to the sequential path.
func TestServerDonatesIdleWorkers(t *testing.T) {
	tpl := testTemplate(21)
	expected := sequentialPicks(t, tpl)

	opts := Options{Workers: 3, DonateWorkers: true}
	opts.Optimizer = core.DefaultOptions()
	opts.Optimizer.SplitCandidates = 1 // force split jobs
	s := New(opts)
	defer s.Close()
	prep, err := s.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range testPoints {
		got := serverPicks(t, s, prep.Key, x)
		for k, want := range got {
			if fmt.Sprint(expected[k]) != fmt.Sprint(want) {
				t.Errorf("%s: donated-prepare server returned %v, sequential path %v", k, want, expected[k])
			}
		}
	}
	st := s.Stats()
	if st.DonatedTasks == 0 {
		t.Error("no donated worker stints recorded despite forced splits and idle workers")
	}
	if st.SplitJobs == 0 {
		t.Error("no split jobs recorded despite SplitCandidates=1")
	}
}
