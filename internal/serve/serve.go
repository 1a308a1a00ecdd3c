// Package serve implements the optimizer-as-a-service layer of the MPQ
// workflow (Figure 2 of the paper, run as a long-lived process): query
// templates are optimized once ("Prepare"), their Pareto plan sets are
// persisted through the store format and cached in memory, and run-time
// requests ("Pick") select a plan for concrete parameter values and a
// preference policy against the cached set — without re-running the
// optimizer.
//
// The server owns a pool of solver-equipped workers (the optimizer is
// reentrant since the geometry layer was split into a shared immutable
// Config and per-worker Solvers), a memory-accounted plan-set cache
// keyed by a hash of schema, cost-model configuration and optimizer
// configuration, and a bounded request queue providing backpressure:
// when the queue is full, requests fail fast with ErrQueueFull instead
// of piling up. Picks on resident plan sets need no worker and skip the
// queue. See DESIGN.md, "Serving layer".
//
// The fleet subsystem (mpq/internal/fleet) extends one server to a
// fleet: Options.CacheBytes bounds the cache with size-aware LRU
// eviction (evicted plan sets reload transparently at pick time),
// Options.Shared consults and feeds a shared plan-set store so sibling
// servers never recompute each other's templates, Options.Peers
// fetches prepared documents from sibling processes over HTTP before
// optimizing, and Options.DonateWorkers lends idle pool workers to
// in-flight Prepares, where they plan ready table sets. See DESIGN.md,
// "Fleet serving".
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"mpq/internal/core"
	"mpq/internal/faultfs"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/obs"
)

// Errors returned by the server.
var (
	// ErrQueueFull reports that the bounded request queue is at
	// capacity; the caller should retry later (backpressure).
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrServerClosed reports a request submitted after Close.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownPlanSet reports a Pick for a key no Prepare produced.
	ErrUnknownPlanSet = errors.New("serve: unknown plan-set key")
	// ErrInternal wraps server-side failures (persistence, reload) that
	// are not the client's fault, so transports can map them to 5xx.
	ErrInternal = errors.New("serve: internal error")
)

// Options configures a Server.
type Options struct {
	// Workers is the size of the solver pool: the number of goroutines
	// draining the request queue, each owning a forked geometry solver.
	// Zero selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds the request queue; zero selects 8×Workers.
	// Submissions beyond the bound fail with ErrQueueFull.
	QueueDepth int
	// Optimizer is the optimization configuration used by Prepare. Its
	// Context field is ignored (each pool worker supplies its own
	// solver); its Workers field is the intra-query parallelism of one
	// Prepare and defaults to 1, since the pool already runs requests
	// concurrently. The configuration is part of the cache key.
	Optimizer core.Options
	// Dir, when non-empty, persists every prepared plan set as
	// <key>.json in this directory and serves cache misses from it
	// before optimizing — the embedded-SQL deployment model where plan
	// sets survive server restarts.
	Dir string
	// Index enables the point-location pick index: Prepare builds one
	// over each plan set's parameter space (persisted with the document
	// as the store's v3 index stanza) and Picks resolve the candidate
	// subset by cell lookup. Plan sets loaded without a persisted index
	// are indexed on load. The full linear candidate scan remains the
	// verified fallback — for servers with the knob off, and for points
	// outside an index's box — and returns byte-identical results.
	// Index builds take the index package defaults and parallelize
	// across the pool's width.
	Index bool
	// CacheBytes bounds the in-memory plan-set cache: every cached
	// entry is charged its serialized document size plus its pick
	// index's footprint (the tree and its per-leaf candidate views),
	// and least-recently-used entries are evicted when the total
	// exceeds the budget. Evicted plan sets are not forgotten — a Pick
	// for an evicted key transparently reloads the document from Dir,
	// the shared store, or a peer. Zero keeps the historical unbounded
	// cache. Entries in use are pinned, so the resident total can
	// transiently exceed the budget.
	CacheBytes int64
	// Shared, when non-nil, is the fleet's shared plan-set store:
	// Prepare consults it (after the in-memory cache and Dir) before
	// optimizing, and publishes every document it computes or fetches
	// from a peer, so a fleet of servers over one store computes each
	// template once. Close flushes it.
	Shared fleet.SharedStore
	// Peers, when non-nil, is consulted after Shared and before
	// computing: sibling servers expose their prepared documents under
	// fleet.PlanSetPath, and a fetched document is re-published to
	// Shared. The fetch-vs-compute race is covered by the per-key
	// singleflight: one request fetches or computes, the rest wait.
	Peers *fleet.PeerClient
	// DonateWorkers lends idle pool workers to in-flight Prepares
	// (elastic intra-query parallelism): when the request queue is
	// empty and workers are idle, an optimizing Prepare hands them
	// whole table sets that are ready to plan. Results are
	// byte-identical with or without donation.
	DonateWorkers bool
	// FS is the filesystem the Dir persistence reads and writes through
	// (nil = the real one) — the fault-injection seam for crash and
	// I/O-error tests. The shared store carries its own (see
	// fleet.NewDirStoreFS).
	FS faultfs.FS
	// Trace, when non-nil, records every Prepare flight that reaches the
	// load-or-optimize pipeline into the ring: per-phase timings
	// (queue wait, source lookup, optimize, index build, save) plus the
	// document's source. Instrumented rings additionally feed per-phase
	// latency histograms (see obs.TraceRing.Instrument).
	// Nil disables tracing — the hot path pays one nil check.
	Trace *obs.TraceRing
}

// Server is a long-lived optimizer service. Create with New, release
// with Close. All methods are safe for concurrent use.
type Server struct {
	opts  Options
	fs    faultfs.FS
	queue chan *job
	wg    sync.WaitGroup
	cache *fleet.Cache
	busy  atomic.Int64 // pool workers currently inside a job
	picks pickCounters

	mu        sync.RWMutex
	closed    bool
	inflight  flights[PrepareResult]
	reloading flights[*entry]
	stats     Stats

	// keys memoizes generated templates' plan-set keys (see
	// templateKey).
	keyMu sync.Mutex
	keys  map[keyMemoKey]string
}

// job is one queued request; run executes on a pool worker. state
// resolves the abandonment race: a waiter whose context fires while
// the job is still queued flips pending→abandoned and leaves without
// the work ever starting; the worker flips pending→running before
// executing, and a waiter that loses that race waits for completion
// (the work is already burning a worker — its result is kept).
type job struct {
	run   func(w *worker)
	done  chan struct{}
	state atomic.Int32 // 0 pending, 1 running, 2 abandoned
}

const (
	jobPending   = 0
	jobRunning   = 1
	jobAbandoned = 2
)

// worker is one pool goroutine with its forked solver.
type worker struct {
	solver *geometry.Solver
}

// New starts a server with the given options. A zero Optimizer
// configuration selects core.DefaultOptions (the paper's refinements).
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Optimizer == (core.Options{}) {
		opts.Optimizer = core.DefaultOptions()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8 * opts.Workers
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	s := &Server{
		opts:      opts,
		fs:        fsys,
		queue:     make(chan *job, opts.QueueDepth),
		cache:     fleet.NewCache(opts.CacheBytes),
		inflight:  make(flights[PrepareResult]),
		reloading: make(flights[*entry]),
		keys:      make(map[keyMemoKey]string),
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{solver: geometry.NewSolver(geometry.Config{})}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				if !j.state.CompareAndSwap(jobPending, jobRunning) {
					// Abandoned while queued: the waiter is gone, skip
					// the work and retire the job.
					close(j.done)
					continue
				}
				s.busy.Add(1)
				j.run(w)
				s.busy.Add(-1)
				close(j.done)
			}
		}()
	}
	return s
}

// Close drains the queue, stops the workers, and flushes the shared
// store. Requests submitted after Close fail with ErrServerClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	if s.opts.Shared != nil {
		// Every Put is already durable; this is the final best-effort
		// sync of the store's directory entry on the way out.
		_ = s.opts.Shared.Flush()
	}
}

// submit enqueues a request, enforcing the queue bound. The send
// happens under the read lock so it cannot race Close (which closes
// the channel under the write lock).
func (s *Server) submit(j *job) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrServerClosed
	}
	select {
	case s.queue <- j:
		s.mu.RUnlock()
		return nil
	default:
		s.mu.RUnlock()
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		return ErrQueueFull
	}
}

// orBackground is the server's single sanctioned context root: every
// public entry point tolerates a nil ctx from legacy callers by
// defaulting to an uncancellable Background at the API boundary.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background() //mpq:ctxroot nil ctx from legacy callers defaults to an uncancellable root at the API boundary
	}
	return ctx
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline expiry.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// noteCtxFailure counts a request that failed on its context, once, at
// the API boundary.
func (s *Server) noteCtxFailure(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.mu.Lock()
		s.stats.DeadlineExpiries++
		s.mu.Unlock()
	case errors.Is(err, context.Canceled):
		s.mu.Lock()
		s.stats.Cancellations++
		s.mu.Unlock()
	}
}

// run submits fn to the pool and waits for it, merging the worker's
// solver counters into the server stats afterwards. When ctx fires
// while the job is still queued, the job is abandoned (the pool skips
// it) and ctx's error returned; once fn is running, run waits it out —
// fn observes ctx itself where it matters (the optimizer's
// checkpoints) and its completed result is kept.
func (s *Server) run(ctx context.Context, fn func(w *worker)) error {
	j := &job{done: make(chan struct{})}
	j.run = func(w *worker) {
		defer s.mergeSolverStats(w, w.solver.Stats)
		fn(w)
	}
	if err := s.submit(j); err != nil {
		return err
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		if j.state.CompareAndSwap(jobPending, jobAbandoned) {
			return ctx.Err()
		}
		// Already running; the worker finishes (promptly, if fn watches
		// ctx) and the result stands.
		<-j.done
		return nil
	}
}

// mergeSolverStats adds the solver work w did since before to the
// server's geometry counters.
func (s *Server) mergeSolverStats(w *worker, before geometry.Stats) {
	diff := w.solver.Stats
	diff.Sub(before)
	if diff == (geometry.Stats{}) {
		// Picks solve nothing; they skip the server lock.
		return
	}
	s.mu.Lock()
	s.stats.Geometry.Add(diff)
	s.mu.Unlock()
}

// serverDonor adapts the server's idle pool capacity to the
// optimizer's DonorPool: when the request queue is empty and workers
// are idle, an in-flight Prepare may borrow them to plan ready table
// sets. Offers
// are strictly non-blocking — queued client requests always win over
// donations.
type serverDonor Server

func (d *serverDonor) Idle() int {
	s := (*Server)(d)
	if len(s.queue) > 0 {
		// Queued requests are about to claim the idle workers.
		return 0
	}
	idle := s.opts.Workers - int(s.busy.Load())
	if idle < 0 {
		idle = 0
	}
	return idle
}

func (d *serverDonor) Offer(task func()) bool {
	s := (*Server)(d)
	if d.Idle() <= 0 {
		return false
	}
	j := &job{done: make(chan struct{})}
	j.run = func(w *worker) {
		task()
		s.mu.Lock()
		s.stats.DonatedTasks++
		s.mu.Unlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}
