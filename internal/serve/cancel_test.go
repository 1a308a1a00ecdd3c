package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/workload"
)

// slowTemplate takes seconds to optimize — long enough that a
// cancellation mid-optimization is observable. cycle-2p/6t/s1 solves
// 1,374,961 LPs over 25 join masks; one worker took 2.5–3.2 s in six
// runs on a 2-CPU x86-64 box, 25× the tests' largest deadline (100 ms),
// and its many masks give the cooperative stop frequent checkpoints.
func slowTemplate() Template {
	return Template{Workload: workload.Config{
		Tables: 6, Params: 2, Shape: workload.Cycle, Seed: 1,
	}}
}

// slowDoc stands in for slowTemplate's plan-set document: the exact
// document of the cheap 2-parameter template chain-2p/3t/s1, prepared
// once per test binary. Tests whose slowTemplate Prepare is cancelled
// and must then succeed serve it through a slowShared store instead of
// optimizing the whole template (about 34 s under -race).
var slowDoc = sync.OnceValues(func() ([]byte, error) {
	// A cache budget makes the server retain the document bytes.
	s := New(Options{Workers: 1, CacheBytes: 1 << 40})
	defer s.Close()
	prep, err := s.Prepare(context.Background(), Template{Workload: workload.Config{
		Tables: 3, Params: 2, Shape: workload.Chain, Seed: 1,
	}})
	if err != nil {
		return nil, err
	}
	return s.Document(prep.Key)
})

// slowShared is a SharedStore that holds nothing until armed, then
// serves slowDoc under every key (the servers using it prepare only
// slowTemplate). The document is a stand-in, not slowTemplate's own:
// serving checks only that a stored document decodes, validates and
// records the requested ε, and the recovering Prepares need only some
// valid exact 2-parameter plan set to count a shared hit, report plans
// and answer a Pick at {0.5, 0.5}. Puts are dropped. looked is closed by the first Get,
// so a test can tell that a Prepare's source lookup missed and its
// optimization has begun.
type slowShared struct {
	doc    []byte
	armed  atomic.Bool
	looked chan struct{}
	once   sync.Once
}

// newSlowShared returns an unarmed store, preparing slowDoc first if
// no test has yet.
func newSlowShared(t *testing.T) *slowShared {
	doc, err := slowDoc()
	if err != nil {
		t.Fatalf("preparing the stand-in document: %v", err)
	}
	return &slowShared{doc: doc, looked: make(chan struct{})}
}

// arm makes every later Get serve the document.
func (m *slowShared) arm() { m.armed.Store(true) }

func (m *slowShared) Get(string) ([]byte, bool, error) {
	armed := m.armed.Load()
	m.once.Do(func() { close(m.looked) })
	if !armed {
		return nil, false, nil
	}
	return m.doc, true, nil
}

func (m *slowShared) Put(string, []byte) error { return nil }
func (m *slowShared) Flush() error             { return nil }

func TestPrepareCancelledBeforeStart(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Prepare(ctx, testTemplate(21)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Prepare = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	// The server is unharmed: the same template still prepares.
	if _, err := s.Prepare(context.Background(), testTemplate(21)); err != nil {
		t.Fatalf("Prepare after a cancelled attempt: %v", err)
	}
}

func TestPickDeadlineExpired(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Pick(ctx, PickRequest{Key: prep.Key, Point: testPoints[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Pick = %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.PickBatch(ctx, PickBatchRequest{Key: prep.Key, Points: testPoints}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired PickBatch = %v, want context.DeadlineExceeded", err)
	}
	if st := s.Stats(); st.DeadlineExpiries != 2 {
		t.Errorf("deadline expiries = %d, want 2", st.DeadlineExpiries)
	}
}

// TestPrepareAbandonedWhileQueued wedges the only worker, queues a
// Prepare, cancels it, and verifies the abandoned job never runs: the
// caller returns promptly with context.Canceled, and the server keeps
// serving afterwards — no leaked worker, admission slot, or
// singleflight key.
func TestPrepareAbandonedWhileQueued(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
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
	<-started // the only worker is wedged

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Prepare(ctx, testTemplate(21))
		errc <- err
	}()
	// Wait for the Prepare to register its singleflight entry (it is
	// then queued behind the blocker).
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned Prepare = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned Prepare did not return while its job was queued")
	}

	// The singleflight key must be gone — a wedged one would dedupe all
	// future Prepares of this template into a dead flight.
	s.mu.Lock()
	leaked := len(s.inflight)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d singleflight entries leaked by the abandoned Prepare", leaked)
	}

	close(release)
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatalf("Prepare after abandonment: %v", err)
	}
	if prep.Cached {
		t.Error("the abandoned Prepare's job ran anyway (result was cached)")
	}
	st := s.Stats()
	if st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	if st.Admission.Running != 0 || st.Admission.Queued != 0 {
		t.Errorf("admission not quiescent: %+v", st.Admission)
	}
}

// TestPrepareDeadlineMidOptimize cancels an optimization that is
// already running. The scheduler's cooperative checkpoints must stop
// it well before completion (the workload takes seconds on one worker),
// the expiry must be counted, and the same server must then complete
// the same template cleanly — proving the abandoned run released its
// worker, admission slot, and singleflight key. The recovery Prepare
// takes the same flight, admission and worker path, but finds the
// template's document in the shared store, armed only once the
// deadline has expired, instead of optimizing it again.
func TestPrepareDeadlineMidOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second optimization")
	}
	shared := newSlowShared(t)
	s := New(Options{Workers: 2, Shared: shared})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Prepare(ctx, slowTemplate())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("optimization finished before the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-optimize Prepare = %v, want context.DeadlineExceeded", err)
	}
	// The full optimization takes ~2.5s on one worker; a cooperative
	// stop must come back far sooner than completion would.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled Prepare took %v — checkpoints not releasing the scheduler", elapsed)
	}
	if st := s.Stats(); st.DeadlineExpiries != 1 {
		t.Errorf("deadline expiries = %d, want 1", st.DeadlineExpiries)
	}

	// The abandoned run must not poison the key: a fresh Prepare of the
	// same template completes and yields a usable plan set.
	shared.arm()
	prep, err := s.Prepare(context.Background(), slowTemplate())
	if err != nil {
		t.Fatalf("Prepare after mid-optimize abandonment: %v", err)
	}
	if prep.NumPlans == 0 {
		t.Error("post-abandonment Prepare returned an empty plan set")
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: geometry.Vector{0.5, 0.5}}); err != nil {
		t.Fatalf("Pick after recovery: %v", err)
	}
}

// waiterCase is one singleflight table under
// TestPrepareWaiterSurvivesCancelledWinner.
type waiterCase struct {
	// call issues one request through the table's flight.
	call func(ctx context.Context) error
	// parked blocks until the winner's flight is registered and busy.
	parked func()
	// waiters is how many live-context requests join the flight.
	waiters int
	// release unblocks the flight's work once the winner is cancelled.
	release func()
	// check asserts the table-specific outcome after every request ended.
	check func(t *testing.T)
}

// TestPrepareWaiterSurvivesCancelledWinner: when a singleflight
// winner's caller gives up, waiters with live contexts must not inherit
// the cancellation — one retries and becomes the new winner, the rest
// join it. Both flight tables are covered: Prepare's (the winner is
// cancelled mid-optimization) and the pick-time reload's (the winner is
// parked inside the source walk, in a peer fetch that blocks until
// released).
func TestPrepareWaiterSurvivesCancelledWinner(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T) waiterCase
	}{
		{"prepare", prepareWaiterCase},
		{"reload", reloadWaiterCase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.setup(t)
			winnerCtx, cancelWinner := context.WithCancel(context.Background())
			winnerErr := make(chan error, 1)
			go func() { winnerErr <- c.call(winnerCtx) }()
			c.parked()
			waiterErrs := make(chan error, c.waiters)
			for i := 0; i < c.waiters; i++ {
				go func() { waiterErrs <- c.call(context.Background()) }()
			}
			// Let the waiters join the flight before its winner gives up.
			time.Sleep(50 * time.Millisecond)
			cancelWinner()
			if err := <-winnerErr; err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("winner = %v, want nil or context.Canceled", err)
			}
			c.release()
			for i := 0; i < c.waiters; i++ {
				select {
				case err := <-waiterErrs:
					if err != nil {
						t.Fatalf("waiter inherited the winner's fate: %v", err)
					}
				case <-time.After(2 * time.Minute):
					t.Fatal("waiter never completed after the winner was cancelled")
				}
			}
			c.check(t)
		})
	}
}

// prepareWaiterCase: one waiter joins a Prepare whose winner is
// cancelled while optimizing. The waiter's retry finds the template's
// document in the shared store, armed once the winner's lookup has
// missed, instead of optimizing it again.
func prepareWaiterCase(t *testing.T) waiterCase {
	if testing.Short() {
		t.Skip("multi-second optimization")
	}
	shared := newSlowShared(t)
	s := New(Options{Workers: 2, Shared: shared})
	t.Cleanup(s.Close)
	return waiterCase{
		call: func(ctx context.Context) error {
			prep, err := s.Prepare(ctx, slowTemplate())
			if err == nil && prep.NumPlans == 0 {
				err = errors.New("empty plan set")
			}
			return err
		},
		// The winner's flight is registered before its lookup, and only
		// flight waiters join after this returns, so the winner has
		// missed and is optimizing when the store is armed.
		parked: func() {
			<-shared.looked
			shared.arm()
		},
		waiters: 1,
		release: func() {},
		check: func(t *testing.T) {
			if st := s.Stats(); st.SharedHits != 1 {
				t.Errorf("shared hits = %d, want 1 (the waiter's retry)", st.SharedHits)
			}
		},
	}
}

// reloadWaiterCase: concurrent Picks of an evicted key join one
// pick-time reload whose winner is cancelled while its peer fetch
// blocks. The waiters must all be answered by exactly one reload.
func reloadWaiterCase(t *testing.T) waiterCase {
	// The origin retains its documents (a budgeted cache) so it can
	// serve them to peers.
	origin := New(Options{Workers: 1, CacheBytes: 1 << 30})
	t.Cleanup(origin.Close)
	if _, err := origin.Prepare(context.Background(), testTemplate(21)); err != nil {
		t.Fatal(err)
	}
	var blocking atomic.Bool
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if blocking.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-gate:
			case <-r.Context().Done():
				return
			}
		}
		doc, err := origin.Document(strings.TrimPrefix(r.URL.Path, fleet.PlanSetPath))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(fleet.DocHashHeader, fleet.ContentHash(doc))
		w.Write(doc)
	}))
	t.Cleanup(peer.Close)

	// A one-byte budget keeps only the latest admission resident: the
	// second template evicts the first, whose only source is the peer.
	s := New(Options{Workers: 4, CacheBytes: 1, Peers: fleet.NewPeerClient([]string{peer.URL}, 0)})
	t.Cleanup(s.Close)
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Cached {
		t.Fatal("the first plan set was not fetched from the peer")
	}
	if _, err := s.Prepare(context.Background(), testTemplate(22)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.PlanSet(prep.Key); ok {
		t.Fatal("the first plan set was not evicted")
	}
	blocking.Store(true)
	return waiterCase{
		call: func(ctx context.Context) error {
			res, err := s.Pick(ctx, PickRequest{Key: prep.Key, Point: testPoints[2]})
			if err == nil && len(res.Choices) == 0 {
				err = errors.New("empty pick")
			}
			return err
		},
		parked:  func() { <-entered },
		waiters: 3,
		release: func() { close(gate) },
		check: func(t *testing.T) {
			st := s.Stats()
			if st.Reloads != 1 {
				t.Errorf("reloads = %d, want exactly 1 for one evicted key", st.Reloads)
			}
			if st.Cancellations != 1 {
				t.Errorf("cancellations = %d, want 1 (the parked winner)", st.Cancellations)
			}
		},
	}
}
