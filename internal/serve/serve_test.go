package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
)

func testTemplate(seed int64) Template {
	return Template{Workload: workload.Config{
		Tables: 4, Params: 1, Shape: workload.Chain, Seed: seed,
	}}
}

var testPoints = []geometry.Vector{{0.01}, {0.2}, {0.5}, {0.8}, {0.99}}

// render formats a choice so comparisons are byte-identical.
func render(c selection.Choice) string {
	return fmt.Sprintf("%v @ %v", c.Plan, c.Cost)
}

func renderAll(cs []selection.Choice) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = render(c)
	}
	return out
}

// sequentialPicks computes the expected responses with the in-process
// sequential path: optimize with one worker, round-trip through the
// store format, run the selection policies directly.
func sequentialPicks(t *testing.T, tpl Template) map[string][]string {
	t.Helper()
	schema, err := workload.Generate(tpl.Workload)
	if err != nil {
		t.Fatal(err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Context = ctx
	opts.Workers = 1
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
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
	expected := make(map[string][]string)
	for _, x := range testPoints {
		expected[expectKey("frontier", x)] = renderAll(selection.Frontier(cands, x))
		w, err := selection.WeightedSum(cands, x, []float64{1, 10000})
		if err != nil {
			t.Fatal(err)
		}
		expected[expectKey("weighted", x)] = []string{render(w)}
		l, err := selection.Lexicographic(cands, x, []int{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		expected[expectKey("lex", x)] = []string{render(l)}
	}
	return expected
}

func expectKey(policy string, x geometry.Vector) string {
	return fmt.Sprintf("%s@%v", policy, x)
}

// serverPicks issues the same requests against a server.
func serverPicks(t *testing.T, s *Server, key string, x geometry.Vector) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	reqs := []PickRequest{
		{Key: key, Point: x, Policy: PolicyFrontier},
		{Key: key, Point: x, Policy: PolicyWeightedSum, Weights: []float64{1, 10000}},
		{Key: key, Point: x, Policy: PolicyLexicographic, Order: []int{1, 0}},
	}
	names := []string{"frontier", "weighted", "lex"}
	for i, req := range reqs {
		res, err := pickRetrying(s, req)
		if err != nil {
			t.Fatalf("pick %s at %v: %v", names[i], x, err)
		}
		got[expectKey(names[i], x)] = renderAll(res.Choices)
	}
	return got
}

// pickRetrying retries on queue backpressure, as a client would.
func pickRetrying(s *Server, req PickRequest) (PickResult, error) {
	for {
		res, err := s.Pick(context.Background(), req)
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		return res, err
	}
}

func prepareRetrying(s *Server, tpl Template) (PrepareResult, error) {
	for {
		res, err := s.Prepare(context.Background(), tpl)
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		return res, err
	}
}

// TestServerMatchesSequentialPath: for fixed seeds, every cached Pick
// must return exactly (byte-identically) the plans and cost vectors the
// in-process sequential selection path returns.
func TestServerMatchesSequentialPath(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	for _, seed := range []int64{21, 33} {
		tpl := testTemplate(seed)
		expected := sequentialPicks(t, tpl)
		prep, err := s.Prepare(context.Background(), tpl)
		if err != nil {
			t.Fatal(err)
		}
		if prep.Cached {
			t.Errorf("seed %d: first Prepare reported cached", seed)
		}
		if prep.NumPlans == 0 {
			t.Fatalf("seed %d: empty plan set", seed)
		}
		for _, x := range testPoints {
			got := serverPicks(t, s, prep.Key, x)
			for k, want := range got {
				exp := expected[k]
				if fmt.Sprint(exp) != fmt.Sprint(want) {
					t.Errorf("seed %d %s: server returned %v, sequential path %v", seed, k, want, exp)
				}
			}
		}
		// Second Prepare of the same template is a cache hit with the
		// same key.
		prep2, err := s.Prepare(context.Background(), tpl)
		if err != nil {
			t.Fatal(err)
		}
		if !prep2.Cached || prep2.Key != prep.Key {
			t.Errorf("seed %d: re-Prepare cached=%v key match=%v", seed, prep2.Cached, prep2.Key == prep.Key)
		}
	}
	st := s.Stats()
	if st.Prepares != 4 || st.PrepareHits != 2 || st.Cache.ResidentEntries != 2 {
		t.Errorf("stats = %+v, want 4 prepares, 2 hits, 2 cached sets", st)
	}
	if st.Geometry.LPs == 0 {
		t.Error("no geometry work recorded")
	}
	// Every non-cached Prepare ran the dependency scheduler; its
	// pipeline metrics must be aggregated into the server stats.
	if st.PipelineBusy <= 0 || st.PipelineCapacity <= 0 {
		t.Errorf("pipeline times not recorded: busy=%v capacity=%v", st.PipelineBusy, st.PipelineCapacity)
	}
	if st.PipelineUtilization <= 0 || st.PipelineUtilization > 1 {
		t.Errorf("pipeline utilization %v out of (0,1]", st.PipelineUtilization)
	}
}

// TestServerPipelineUtilizationParallelPrepare: with intra-query
// parallelism enabled on Prepares, the utilization aggregate must still
// land in (0,1].
func TestServerPipelineUtilizationParallelPrepare(t *testing.T) {
	opts := Options{Workers: 2}
	opts.Optimizer = core.DefaultOptions()
	opts.Optimizer.Workers = 2
	s := New(opts)
	defer s.Close()
	if _, err := s.Prepare(context.Background(), testTemplate(5)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PipelineUtilization <= 0 || st.PipelineUtilization > 1 {
		t.Errorf("pipeline utilization %v out of (0,1]", st.PipelineUtilization)
	}
}

// TestServerConcurrentStress drives many concurrent Prepare/Pick mixes
// (run under -race in CI) and asserts every response is byte-identical
// to the sequential path's.
func TestServerConcurrentStress(t *testing.T) {
	seeds := []int64{21, 33, 47}
	templates := make([]Template, len(seeds))
	expected := make([]map[string][]string, len(seeds))
	for i, seed := range seeds {
		templates[i] = testTemplate(seed)
		expected[i] = sequentialPicks(t, templates[i])
	}

	s := New(Options{Workers: 4, QueueDepth: 8})
	defer s.Close()

	const clients = 8
	iterations := 6
	if testing.Short() {
		iterations = 2
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				i := (c + it) % len(templates)
				prep, err := prepareRetrying(s, templates[i])
				if err != nil {
					errCh <- fmt.Errorf("client %d prepare %d: %w", c, i, err)
					return
				}
				x := testPoints[(c+it)%len(testPoints)]
				res, err := pickRetrying(s, PickRequest{Key: prep.Key, Point: x, Policy: PolicyFrontier})
				if err != nil {
					errCh <- fmt.Errorf("client %d pick: %w", c, err)
					return
				}
				want := expected[i][expectKey("frontier", x)]
				if fmt.Sprint(renderAll(res.Choices)) != fmt.Sprint(want) {
					errCh <- fmt.Errorf("client %d: frontier at %v = %v, sequential %v",
						c, x, renderAll(res.Choices), want)
					return
				}
				wres, err := pickRetrying(s, PickRequest{
					Key: prep.Key, Point: x, Policy: PolicyWeightedSum, Weights: []float64{1, 10000},
				})
				if err != nil {
					errCh <- fmt.Errorf("client %d weighted pick: %w", c, err)
					return
				}
				want = expected[i][expectKey("weighted", x)]
				if fmt.Sprint(renderAll(wres.Choices)) != fmt.Sprint(want) {
					errCh <- fmt.Errorf("client %d: weighted at %v = %v, sequential %v",
						c, x, renderAll(wres.Choices), want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()
	if st.Cache.ResidentEntries != len(templates) {
		t.Errorf("cached sets = %d, want %d (singleflight per key)", st.Cache.ResidentEntries, len(templates))
	}
	if st.PrepareHits == 0 {
		t.Error("no cache hits during the stress mix")
	}
	if got := st.Prepares; got != int64(clients*iterations) {
		t.Errorf("prepares = %d, want %d", got, clients*iterations)
	}
}

// TestServerIndexedPicksMatchSequentialPath: with the pick index
// enabled, every Pick and every PickBatch must still return exactly
// (byte-identically) what the in-process sequential linear scan
// returns, and the index must actually serve the picks (not the
// fallback).
func TestServerIndexedPicksMatchSequentialPath(t *testing.T) {
	s := New(Options{Workers: 2, Index: true})
	defer s.Close()
	for _, seed := range []int64{21, 33} {
		tpl := testTemplate(seed)
		expected := sequentialPicks(t, tpl)
		prep, err := s.Prepare(context.Background(), tpl)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range testPoints {
			got := serverPicks(t, s, prep.Key, x)
			for k, want := range got {
				if fmt.Sprint(expected[k]) != fmt.Sprint(want) {
					t.Errorf("seed %d %s: indexed server returned %v, sequential path %v", seed, k, want, expected[k])
				}
			}
		}
		// The same points as one batch, per policy.
		batchPolicies := []PickBatchRequest{
			{Key: prep.Key, Points: testPoints, Policy: PolicyFrontier},
			{Key: prep.Key, Points: testPoints, Policy: PolicyWeightedSum, Weights: []float64{1, 10000}},
			{Key: prep.Key, Points: testPoints, Policy: PolicyLexicographic, Order: []int{1, 0}},
		}
		names := []string{"frontier", "weighted", "lex"}
		for bi, breq := range batchPolicies {
			bres, err := s.PickBatch(context.Background(), breq)
			if err != nil {
				t.Fatalf("seed %d batch %s: %v", seed, names[bi], err)
			}
			if len(bres.Choices) != len(testPoints) {
				t.Fatalf("batch returned %d answers for %d points", len(bres.Choices), len(testPoints))
			}
			for pi, x := range testPoints {
				want := expected[expectKey(names[bi], x)]
				if fmt.Sprint(renderAll(bres.Choices[pi])) != fmt.Sprint(want) {
					t.Errorf("seed %d batch %s at %v: %v, sequential %v",
						seed, names[bi], x, renderAll(bres.Choices[pi]), want)
				}
			}
		}
	}
	st := s.Stats()
	if st.Index.IndexedPlanSets != 2 {
		t.Errorf("indexed plan sets = %d, want 2", st.Index.IndexedPlanSets)
	}
	if st.Index.Builds != 2 || st.Index.BuildTime <= 0 {
		t.Errorf("index builds = %d (time %v), want 2 builds with recorded time", st.Index.Builds, st.Index.BuildTime)
	}
	if st.Index.Leaves <= 0 || st.Index.AvgLeafCandidates <= 0 {
		t.Errorf("index shape not reported: %+v", st.Index)
	}
	if st.Index.IndexPicks == 0 {
		t.Error("no picks served through the index")
	}
	if st.Index.FallbackPicks != 0 {
		t.Errorf("%d in-space picks fell back to the linear scan", st.Index.FallbackPicks)
	}
}

// TestPickStatsAccounting is the pick-accounting regression test:
// Stats.Picks counts batch picks per *point* (not per request), and
// index-served versus fallback-served picks are distinguished.
func TestPickStatsAccounting(t *testing.T) {
	check := func(t *testing.T, s *Server, wantIndexed bool) {
		t.Helper()
		prep, err := s.Prepare(context.Background(), testTemplate(21))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: testPoints[0]}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PickBatch(context.Background(), PickBatchRequest{Key: prep.Key, Points: testPoints}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		wantPicks := int64(1 + len(testPoints))
		if st.Picks != wantPicks {
			t.Errorf("Picks = %d, want %d (batch picks count per point)", st.Picks, wantPicks)
		}
		if st.Index.BatchRequests != 1 || st.Index.BatchPoints != int64(len(testPoints)) {
			t.Errorf("batch accounting = %d requests / %d points, want 1 / %d",
				st.Index.BatchRequests, st.Index.BatchPoints, len(testPoints))
		}
		if st.Index.IndexPicks+st.Index.FallbackPicks != wantPicks {
			t.Errorf("index+fallback = %d+%d, want %d total",
				st.Index.IndexPicks, st.Index.FallbackPicks, wantPicks)
		}
		if wantIndexed && st.Index.IndexPicks != wantPicks {
			t.Errorf("indexed server served %d of %d picks via the index", st.Index.IndexPicks, wantPicks)
		}
		if !wantIndexed && st.Index.IndexPicks != 0 {
			t.Errorf("index-less server reported %d index picks", st.Index.IndexPicks)
		}
	}
	t.Run("indexed", func(t *testing.T) {
		s := New(Options{Workers: 1, Index: true})
		defer s.Close()
		check(t, s, true)
	})
	t.Run("linear", func(t *testing.T) {
		s := New(Options{Workers: 1})
		defer s.Close()
		check(t, s, false)
	})
}

// TestPickBatchErrors: an invalid point fails the whole batch with an
// error naming the point.
func TestPickBatchErrors(t *testing.T) {
	s := New(Options{Workers: 1, Index: true})
	defer s.Close()
	if _, err := s.PickBatch(context.Background(), PickBatchRequest{Key: "missing"}); !errors.Is(err, ErrUnknownPlanSet) {
		t.Errorf("unknown key error = %v", err)
	}
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.PickBatch(context.Background(), PickBatchRequest{
		Key:    prep.Key,
		Points: []geometry.Vector{{0.5}, {7}},
	})
	if err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Errorf("out-of-space batch point error = %v", err)
	}
	_, err = s.PickBatch(context.Background(), PickBatchRequest{
		Key: prep.Key, Points: []geometry.Vector{{0.5}}, Policy: "nonsense",
	})
	if err == nil || strings.Contains(err.Error(), "point") {
		t.Errorf("unknown policy in batch = %v, want a request-level (not per-point) error", err)
	}
	// Policy validation happens up front, even for empty batches.
	if _, err := s.PickBatch(context.Background(), PickBatchRequest{Key: prep.Key, Policy: "nonsense"}); err == nil {
		t.Error("unknown policy accepted in empty batch")
	}
	if _, err := s.PickBatch(context.Background(), PickBatchRequest{Key: prep.Key}); err != nil {
		t.Errorf("empty batch with valid policy failed: %v", err)
	}
}

// TestIndexedPersistenceAcrossServers: a persisted indexed document is
// served by a restarted server without rebuilding the index, and an
// index-enabled server reindexes documents written without one.
func TestIndexedPersistenceAcrossServers(t *testing.T) {
	dir := t.TempDir()
	tpl := testTemplate(21)

	s1 := New(Options{Workers: 1, Dir: dir, Index: true})
	prep1, err := s1.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats(); st.Index.Builds != 1 {
		t.Errorf("first server builds = %d, want 1", st.Index.Builds)
	}
	res1, err := s1.Pick(context.Background(), PickRequest{Key: prep1.Key, Point: geometry.Vector{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Restart with the persisted stanza: no rebuild, identical picks,
	// index-served.
	s2 := New(Options{Workers: 1, Dir: dir, Index: true})
	prep2, err := s2.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	if !prep2.Cached {
		t.Error("restart Prepare did not hit the persisted document")
	}
	if st := s2.Stats(); st.Index.Builds != 0 {
		t.Errorf("restarted server rebuilt the index %d times despite the persisted stanza", st.Index.Builds)
	}
	res2, err := s2.Pick(context.Background(), PickRequest{Key: prep2.Key, Point: geometry.Vector{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(renderAll(res1.Choices)) != fmt.Sprint(renderAll(res2.Choices)) {
		t.Errorf("picks differ across restart: %v vs %v", renderAll(res1.Choices), renderAll(res2.Choices))
	}
	if st := s2.Stats(); st.Index.IndexPicks != 1 {
		t.Errorf("restarted server index picks = %d, want 1", st.Index.IndexPicks)
	}
	s2.Close()

	// A document written WITHOUT an index is reindexed on load by an
	// index-enabled server.
	dir2 := t.TempDir()
	plain := New(Options{Workers: 1, Dir: dir2})
	if _, err := plain.Prepare(context.Background(), tpl); err != nil {
		t.Fatal(err)
	}
	plain.Close()
	s3 := New(Options{Workers: 1, Dir: dir2, Index: true})
	defer s3.Close()
	prep3, err := s3.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	if !prep3.Cached {
		t.Error("index-enabled server did not reuse the index-less document")
	}
	if st := s3.Stats(); st.Index.Builds != 1 {
		t.Errorf("rebuild-on-load builds = %d, want 1", st.Index.Builds)
	}
	res3, err := s3.Pick(context.Background(), PickRequest{Key: prep3.Key, Point: geometry.Vector{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(renderAll(res1.Choices)) != fmt.Sprint(renderAll(res3.Choices)) {
		t.Errorf("reindexed picks differ: %v vs %v", renderAll(res1.Choices), renderAll(res3.Choices))
	}
}

// TestQueueBackpressure: with a single worker wedged and the queue at
// capacity, further submissions fail fast with ErrQueueFull and are
// counted as rejected.
func TestQueueBackpressure(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &job{done: make(chan struct{}), run: func(w *worker) {
		close(started)
		<-release
	}}
	if err := s.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now wedged

	queued := &job{done: make(chan struct{}), run: func(w *worker) {}}
	if err := s.submit(queued); err != nil {
		t.Fatalf("queueing up to depth should succeed: %v", err)
	}
	if err := s.submit(&job{done: make(chan struct{})}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond depth = %v, want ErrQueueFull", err)
	}
	// The public API surfaces the same backpressure.
	if _, err := s.Pick(context.Background(), PickRequest{Key: "nope"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Pick under full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	<-queued.done
	if st := s.Stats(); st.Rejected < 2 {
		t.Errorf("rejected = %d, want >= 2", st.Rejected)
	}
}

// TestResidentPicksSkipQueue: with every pool worker wedged and the
// queue full, a Pick and a PickBatch on a resident plan set still
// answer, byte-identical to the sequential path, while a pick that
// needs a reload is shed with ErrQueueFull. A done context and a closed
// server still refuse resident picks.
func TestResidentPicksSkipQueue(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, Index: true})
	defer s.Close()
	tpl := testTemplate(21)
	prep, err := s.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialPicks(t, tpl)

	started := make(chan struct{})
	release := make(chan struct{})
	var unwedge sync.Once
	defer unwedge.Do(func() { close(release) }) // before Close, which joins the worker
	blocker := &job{done: make(chan struct{}), run: func(w *worker) {
		close(started)
		<-release
	}}
	if err := s.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	queued := &job{done: make(chan struct{}), run: func(w *worker) {}}
	if err := s.submit(queued); err != nil {
		t.Fatal(err)
	}

	x := testPoints[2]
	res, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: x, Policy: PolicyFrontier})
	if err != nil {
		t.Fatalf("resident Pick with the pool wedged: %v", err)
	}
	if got := fmt.Sprint(renderAll(res.Choices)); got != fmt.Sprint(want[expectKey("frontier", x)]) {
		t.Errorf("resident Pick = %v, sequential %v", got, want[expectKey("frontier", x)])
	}
	bres, err := s.PickBatch(context.Background(), PickBatchRequest{
		Key: prep.Key, Points: testPoints, Policy: PolicyWeightedSum, Weights: []float64{1, 10000},
	})
	if err != nil {
		t.Fatalf("resident PickBatch with the pool wedged: %v", err)
	}
	for i, p := range testPoints {
		if got := fmt.Sprint(renderAll(bres.Choices[i])); got != fmt.Sprint(want[expectKey("weighted", p)]) {
			t.Errorf("resident batch at %v = %v, sequential %v", p, got, want[expectKey("weighted", p)])
		}
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: "nope", Point: x}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Pick needing a reload under a full queue = %v, want ErrQueueFull", err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Pick(done, PickRequest{Key: prep.Key, Point: x}); !errors.Is(err, context.Canceled) {
		t.Errorf("resident Pick on a done context = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Picks != int64(1+len(testPoints)) || st.Cancellations != 1 {
		t.Errorf("picks = %d, cancellations = %d; want %d and 1", st.Picks, st.Cancellations, 1+len(testPoints))
	}

	unwedge.Do(func() { close(release) })
	<-queued.done
	s.Close()
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: x}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("resident Pick after Close = %v, want ErrServerClosed", err)
	}
}

func TestPickErrors(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	if _, err := s.Pick(context.Background(), PickRequest{Key: "missing", Point: geometry.Vector{0.5}}); !errors.Is(err, ErrUnknownPlanSet) {
		t.Errorf("unknown key error = %v", err)
	}
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: geometry.Vector{0.5, 0.5}}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// A point outside the parameter space must be rejected, not priced
	// by extrapolating the stored cost pieces.
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: geometry.Vector{5}}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-space point error = %v", err)
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: geometry.Vector{0.5}, Policy: "nonsense"}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Weighted sum with invalid weights surfaces the selection error.
	if _, err := s.Pick(context.Background(), PickRequest{
		Key: prep.Key, Point: geometry.Vector{0.5}, Policy: PolicyWeightedSum, Weights: []float64{0, 0},
	}); err == nil {
		t.Error("zero weights accepted")
	}
}

func TestServerClosed(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Prepare(context.Background(), testTemplate(21)); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Prepare after Close = %v, want ErrServerClosed", err)
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: "k"}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Pick after Close = %v, want ErrServerClosed", err)
	}
}

// TestPersistenceAcrossServers: with Options.Dir, a second server
// instance serves the first one's prepared template from the persisted
// document — without optimizing — and picks identically.
func TestPersistenceAcrossServers(t *testing.T) {
	dir := t.TempDir()
	tpl := testTemplate(21)

	s1 := New(Options{Workers: 2, Dir: dir})
	prep1, err := s1.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Vector{0.5}
	res1, err := s1.Pick(context.Background(), PickRequest{Key: prep1.Key, Point: x, Policy: PolicyFrontier})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	if _, err := os.Stat(filepath.Join(dir, prep1.Key+".json")); err != nil {
		t.Fatalf("persisted document missing: %v", err)
	}

	s2 := New(Options{Workers: 2, Dir: dir})
	defer s2.Close()
	prep2, err := s2.Prepare(context.Background(), tpl)
	if err != nil {
		t.Fatal(err)
	}
	if !prep2.Cached || prep2.Key != prep1.Key {
		t.Errorf("restart Prepare: cached=%v, key match=%v", prep2.Cached, prep2.Key == prep1.Key)
	}
	if st := s2.Stats(); st.PrepareDiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.PrepareDiskHits)
	}
	res2, err := s2.Pick(context.Background(), PickRequest{Key: prep2.Key, Point: x, Policy: PolicyFrontier})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(renderAll(res1.Choices)) != fmt.Sprint(renderAll(res2.Choices)) {
		t.Errorf("picks differ across restart: %v vs %v", renderAll(res1.Choices), renderAll(res2.Choices))
	}
}

// TestKeySensitivity: the cache key must separate templates that
// produce different plan sets and must not depend on the pool size.
func TestKeySensitivity(t *testing.T) {
	a := New(Options{Workers: 1})
	defer a.Close()
	b := New(Options{Workers: 3})
	defer b.Close()
	keyA, err := a.Key(testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := b.Key(testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Error("key depends on the pool size")
	}
	keyOther, err := a.Key(testTemplate(22))
	if err != nil {
		t.Fatal(err)
	}
	if keyOther == keyA {
		t.Error("different workloads share a key")
	}
	cfg := cloud.DefaultConfig()
	cfg.PricePerNodeSec *= 2
	tpl := testTemplate(21)
	tpl.Cloud = &cfg
	keyCloud, err := a.Key(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if keyCloud == keyA {
		t.Error("different cost-model configs share a key")
	}
	c := New(Options{Workers: 1, Optimizer: func() core.Options {
		o := core.DefaultOptions()
		o.Region.RelevancePoints = 0
		return o
	}()})
	defer c.Close()
	keyOpts, err := c.Key(testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	if keyOpts == keyA {
		t.Error("different optimizer configs share a key")
	}
}

// TestPrepareInternalFailure: server-side persistence failures are
// wrapped in ErrInternal (transports map them to 5xx, not 4xx).
func TestPrepareInternalFailure(t *testing.T) {
	s := New(Options{Workers: 1, Dir: filepath.Join(t.TempDir(), "does", "not", "exist")})
	defer s.Close()
	if _, err := s.Prepare(context.Background(), testTemplate(21)); !errors.Is(err, ErrInternal) {
		t.Errorf("Prepare into a missing dir = %v, want ErrInternal", err)
	}
}
