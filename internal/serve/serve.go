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
// optimizing, Options.MaxConcurrentPrepares keeps expensive Prepares
// from monopolizing the pool, and Options.DonateWorkers lends idle
// pool workers to in-flight Prepares' split jobs. See DESIGN.md,
// "Fleet serving".
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/faultfs"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/obs"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
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
	// Solver is the shared immutable geometry configuration of the
	// pool; zero fields take the defaults.
	Solver geometry.Config
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
	Index bool
	// IndexOptions tunes the index build; zero fields take the index
	// package defaults, except Workers, which defaults to the pool size
	// (the build parallelizes across the solver pool's width).
	IndexOptions index.Options
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
	// MaxConcurrentPrepares caps how many Prepares may occupy pool
	// workers at once (FIFO beyond the cap). Requests for one template
	// already collapse onto a single computation via the per-key
	// singleflight; the cap keeps *distinct* expensive templates from
	// starving Picks out of the pool. Zero means no cap.
	MaxConcurrentPrepares int
	// DonateWorkers lends idle pool workers to in-flight Prepares'
	// intra-mask split jobs (elastic intra-query parallelism): when the
	// request queue is empty and workers are idle, an optimizing
	// Prepare may split wide table sets across them. Results are
	// byte-identical with or without donation.
	DonateWorkers bool
	// FS is the filesystem the Dir persistence reads and writes through
	// (nil = the real one) — the fault-injection seam for crash and
	// I/O-error tests. The shared store carries its own (see
	// fleet.NewDirStoreFS).
	FS faultfs.FS
	// Trace, when non-nil, records every Prepare flight that reaches the
	// load-or-optimize pipeline into the ring: per-phase timings
	// (admission wait, queue wait, source lookup, optimize, index build,
	// save) plus the document's source. Instrumented rings additionally
	// feed per-phase latency histograms (see obs.TraceRing.Instrument).
	// Nil disables tracing — the hot path pays one nil check.
	Trace *obs.TraceRing
}

// Template describes a query template to prepare: either an explicit
// schema or a workload-generator configuration, plus the cost-model
// configuration.
type Template struct {
	// Schema, when non-nil, is the query to optimize.
	Schema *catalog.Schema
	// Workload generates the schema when Schema is nil.
	Workload workload.Config
	// Cloud configures the cost model; nil selects the defaults.
	Cloud *cloud.Config
	// Epsilon, when non-nil, overrides the server's default
	// approximation factor (Options.Optimizer.Epsilon) for this
	// template: 0 requests the exact Pareto set, ε > 0 an ε-approximate
	// frontier. The factor is part of the plan-set key, so exact and
	// approximate tiers of the same template coexist in one cache, one
	// shared store, and one fleet without ever answering for each
	// other.
	Epsilon *float64
}

func (t Template) resolve() (*catalog.Schema, cloud.Config, error) {
	cfg := cloud.DefaultConfig()
	if t.Cloud != nil {
		cfg = *t.Cloud
	}
	if t.Schema != nil {
		return t.Schema, cfg, nil
	}
	schema, err := workload.Generate(t.Workload)
	if err != nil {
		return nil, cloud.Config{}, err
	}
	return schema, cfg, nil
}

// PrepareResult reports the outcome of a Prepare request.
type PrepareResult struct {
	// Key identifies the cached plan set for subsequent Picks.
	Key string
	// NumPlans is the Pareto-plan-set size.
	NumPlans int
	// Cached reports whether the set was served without optimizing:
	// from the in-memory cache, a persisted Options.Dir document, the
	// shared store, or a peer.
	Cached bool
	// Duration is the optimization time spent by this request (zero on
	// cache hits).
	Duration time.Duration
	// Stats is the optimization's work summary (plans created, LPs
	// solved, scheduler behavior); the zero value on cache, store, and
	// peer hits. The counts are deterministic for a given template and
	// configuration, which the fleet benchmark's regression gate relies
	// on.
	Stats core.Stats
	// Epsilon is the approximation factor of the served plan set: the
	// template's resolved factor.
	Epsilon float64
}

// Policy selects the run-time preference policy of a Pick request.
type Policy string

// The selection policies of the paper's scenarios.
const (
	// PolicyFrontier returns every Pareto-optimal choice at the point,
	// sorted lexicographically by cost (the tradeoff visualization of
	// Scenario 1).
	PolicyFrontier Policy = "frontier"
	// PolicyWeightedSum minimizes Weights·cost.
	PolicyWeightedSum Policy = "weighted"
	// PolicyMinimizeSubjectTo minimizes metric Minimize under Bounds.
	PolicyMinimizeSubjectTo Policy = "bound"
	// PolicyLexicographic minimizes metrics in Order priority.
	PolicyLexicographic Policy = "lex"
)

// PickRequest selects a plan from a prepared plan set at a parameter
// point.
type PickRequest struct {
	// Key is the plan-set key returned by Prepare.
	Key string
	// Point is the concrete parameter vector.
	Point geometry.Vector
	// Policy selects the preference policy; the zero value means
	// PolicyFrontier.
	Policy Policy
	// Weights configures PolicyWeightedSum.
	Weights []float64
	// Minimize and Bounds configure PolicyMinimizeSubjectTo.
	Minimize int
	Bounds   []selection.Bound
	// Order configures PolicyLexicographic.
	Order []int
}

// PickResult is the selected plan (or, for PolicyFrontier, every
// Pareto-optimal plan) with cost vectors at the requested point.
type PickResult struct {
	// Metrics names the cost components.
	Metrics []string
	// Choices holds the selected plans; exactly one for the
	// single-plan policies.
	Choices []selection.Choice
	// Epsilon is the approximation factor of the plan set the pick was
	// served from.
	Epsilon float64

	texts planTexts
}

// PlanJSON returns a chosen plan's text JSON-quoted — the bytes
// json.Marshal(n.String()) produces — pre-rendered once per resident
// plan set. The caller must not modify them.
func (r PickResult) PlanJSON(n *plan.Node) []byte { return r.texts.quoted(n) }

// planTexts maps each plan of a resident plan set to its JSON-quoted
// text, rendered once when the entry is built so picks never render
// plans. Read-only after construction.
type planTexts map[*plan.Node][]byte

// quoted returns n's pre-rendered text, or renders it for a node the
// plan set does not hold.
func (t planTexts) quoted(n *plan.Node) []byte {
	if b, ok := t[n]; ok {
		return b
	}
	return quotePlan(n)
}

// quotePlan renders n's text through encoding/json, so its escaping
// (HTML characters included) is exactly the transport's.
func quotePlan(n *plan.Node) []byte {
	b, _ := json.Marshal(n.String()) // a string always marshals
	return b
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Prepares counts completed Prepare requests; PrepareHits the
	// subset served from the cache, PrepareDiskHits the documents
	// loaded from Options.Dir (Prepare restarts and pick-time reloads
	// alike).
	Prepares        int64
	PrepareHits     int64
	PrepareDiskHits int64
	// Picks counts completed pick *points*: one per Pick request plus
	// one per point of every PickBatch request (not one per batch).
	Picks int64
	// Rejected counts requests refused with ErrQueueFull.
	Rejected int64
	// Index reports the pick-index behavior (build work, cell shape,
	// and how many pick points the index served versus the linear-scan
	// fallback).
	Index IndexStats
	// CachedPlanSets is the current cache size (resident entries).
	CachedPlanSets int
	// Cache is the memory-accounted plan-set cache's accounting:
	// resident/admitted/evicted bytes and entries, re-admissions, pins.
	// Admitted − evicted = resident at every quiescent point.
	Cache fleet.CacheStats
	// SharedHits counts documents served from Options.Shared (Prepare
	// hits and pick-time reloads); PeerHits those fetched from
	// Options.Peers; SharedPuts the documents this server published to
	// the shared store.
	SharedHits int64
	PeerHits   int64
	SharedPuts int64
	// Reloads counts evicted plan sets transparently reloaded at pick
	// time.
	Reloads int64
	// Cancellations counts requests that ended with context.Canceled
	// (the caller gave up); DeadlineExpiries those that ended with
	// context.DeadlineExceeded. Both are counted once per failed
	// Prepare/Pick/PickBatch call, at the API boundary.
	Cancellations    int64
	DeadlineExpiries int64
	// PeerRetries and PeerBreakerTrips mirror the peer client's
	// resilience counters (fleet.PeerStats); QuarantinedBlobs mirrors
	// the shared store's corrupt-blob quarantine counter. All zero when
	// the corresponding backend is not configured.
	PeerRetries      int64
	PeerBreakerTrips int64
	QuarantinedBlobs int64
	// Admission reports the Prepare admission controller (running,
	// queued, waited, wait time) when MaxConcurrentPrepares is set.
	Admission fleet.AdmissionStats
	// DonatedTasks counts idle-worker stints donated to in-flight
	// Prepares' split jobs (Options.DonateWorkers); DonatedMasks the
	// whole ready masks those stints planned (mask-level donation
	// raises the effective worker count of an in-flight optimization
	// mid-run).
	DonatedTasks int64
	DonatedMasks int64
	// Geometry aggregates the solver work of all pool workers.
	Geometry geometry.Stats
	// PipelineBusy sums the per-worker busy time inside the optimizer's
	// dependency scheduler across all Prepares that ran an optimization;
	// PipelineCapacity sums the corresponding scheduler wall-clock times
	// multiplied by the worker count each run used.
	PipelineBusy     time.Duration
	PipelineCapacity time.Duration
	// PipelineUtilization is PipelineBusy / PipelineCapacity: the mean
	// worker utilization of the optimizer's dependency scheduler over
	// all optimizations this server performed (1.0 = perfectly
	// pipelined; 0 when nothing was optimized yet).
	PipelineUtilization float64
	// SplitJobs counts table sets planned with intra-mask split
	// parallelism across all Prepares.
	SplitJobs int64
}

// IndexStats is the pick-index slice of the server counters.
type IndexStats struct {
	// IndexedPlanSets counts cached plan sets carrying a built index;
	// Leaves and LeafCandidates sum their leaf counts and per-leaf
	// candidate ids, AvgLeafCandidates is their ratio (candidates a
	// cell lookup scans on average, versus the full set for a linear
	// scan).
	IndexedPlanSets   int
	Leaves            int64
	LeafCandidates    int64
	AvgLeafCandidates float64
	// Builds counts index builds this server performed (documents
	// loaded with a persisted index stanza need none); BuildTime sums
	// their wall-clock durations.
	Builds    int64
	BuildTime time.Duration
	// IndexPicks counts pick points answered through a cell lookup;
	// FallbackPicks those answered by the full linear scan (index off,
	// no index on the set, or point outside the index box).
	IndexPicks    int64
	FallbackPicks int64
	// BatchRequests counts PickBatch requests; BatchPoints the points
	// they carried (each batch point is also counted in Stats.Picks).
	BatchRequests int64
	BatchPoints   int64
}

// Server is a long-lived optimizer service. Create with New, release
// with Close. All methods are safe for concurrent use.
type Server struct {
	opts      Options
	fs        faultfs.FS
	queue     chan *job
	wg        sync.WaitGroup
	cache     *fleet.Cache
	admission *fleet.Admission
	busy      atomic.Int64 // pool workers currently inside a job
	picks     pickCounters

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

// pickCounters are the per-pick Stats counters, kept off mu because
// every pick bumps them; Stats copies them into its snapshot.
type pickCounters struct {
	points        atomic.Int64 // Stats.Picks
	index         atomic.Int64 // Stats.Index.IndexPicks
	fallback      atomic.Int64 // Stats.Index.FallbackPicks
	batchRequests atomic.Int64 // Stats.Index.BatchRequests
	batchPoints   atomic.Int64 // Stats.Index.BatchPoints
}

// keyMemoCap bounds the key memo; a full memo is cleared, not evicted
// entry by entry.
const keyMemoCap = 4096

// keyMemoKey identifies a generated template: the generator
// configuration and the resolved ε's bits (planSetKey encodes -0 and 0
// differently, so the memo must too).
type keyMemoKey struct {
	workload workload.Config
	epsBits  uint64
}

// entry is a cached plan set with its precomputed selection
// candidates. On fleet-configured servers (CacheBytes, Shared, or
// Peers set) doc is the exact serialized document the entry
// round-tripped through — served verbatim to peers and the basis of
// the accounted footprint; plain in-memory servers drop it after
// deserializing, keeping the historical memory profile. With the pick
// index enabled, idx is the point-location index and leafCands the
// per-leaf candidate subsets (shared restricted views) Picks scan
// instead of candidates; viewBytes estimates what those views hold.
type entry struct {
	set        *store.PlanSet
	doc        []byte
	candidates []selection.Candidate
	texts      planTexts
	idx        *index.Index
	leafCands  [][]selection.Candidate
	viewBytes  int64
}

// footprint is the bytes the memory-accounted cache charges for the
// entry: the serialized document, the pick index structure, and the
// per-leaf views (their slices and every distinct restricted region,
// cutout, cost and component, index.LeafViews' estimate). The document
// stands in for the deserialized plan set, which the views point into
// but do not copy.
func (e *entry) footprint() int64 {
	b := int64(len(e.doc))
	if e.idx != nil {
		b += e.idx.MemBytes() + e.viewBytes
	}
	return b
}

// lookup resolves the candidate subset for a pick point: the leaf cell
// of the index when available, the full linear-scan set otherwise.
func (e *entry) lookup(x geometry.Vector) (cands []selection.Candidate, viaIndex bool) {
	if e.idx != nil {
		if leaf, _, ok := e.idx.Locate(x); ok {
			return e.leafCands[leaf], true
		}
	}
	return e.candidates, false
}

// flight is one in-progress resolution of a key: the winner runs it,
// concurrent requests for the key wait for its outcome.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// flights is a per-key singleflight table, guarded by the server
// mutex. The server keeps two: Prepare's (which is also the fleet's
// fetch-vs-compute singleflight — the winner consults the shared store
// and the peers before optimizing, so one key never has a racing fetch
// and computation in one process) and the pick-time reloads' (so a
// Prepare never inherits a reload's ErrUnknownPlanSet).
type flights[T any] map[string]*flight[T]

// do resolves key through the table. A key already resident in the
// cache is answered by hit, checked under the lock: a winner admits its
// entry before retiring its flight, so a request that missed the cache
// while that happened finds the entry here instead of running the key
// again. Otherwise the request joins key's flight, or becomes its
// winner and runs fn. A waiter whose winner failed on the winner's own
// context (its caller gave up, not the work) does not inherit that
// failure: its context is still live, so it retries and may become the
// next winner. won reports that this call ran fn.
func (t flights[T]) do(ctx context.Context, s *Server, key string, hit func(*entry) T, fn func() (T, error)) (val T, won bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return val, false, err
		}
		s.mu.Lock()
		if v, ok := s.cache.Get(key, false); ok {
			s.mu.Unlock()
			return hit(v.(*entry)), false, nil
		}
		if fl, ok := t[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
			if isCtxErr(fl.err) {
				continue
			}
			return fl.val, false, fl.err
		}
		fl := &flight[T]{done: make(chan struct{})}
		t[key] = fl
		s.mu.Unlock()

		fl.val, fl.err = fn()
		s.mu.Lock()
		delete(t, key)
		s.mu.Unlock()
		close(fl.done)
		return fl.val, true, fl.err
	}
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
	// Normalize the solver configuration up front: equivalent
	// configurations (zero fields vs explicit defaults) must produce
	// the same pool behavior and the same cache keys.
	opts.Solver = geometry.NewSolver(opts.Solver).Config
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 8 * opts.Workers
	}
	if opts.IndexOptions.Workers <= 0 {
		// Index builds parallelize across the pool's width (the building
		// worker's siblings are idle while its Prepare holds them off).
		opts.IndexOptions.Workers = opts.Workers
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
		admission: fleet.NewAdmission(opts.MaxConcurrentPrepares),
		inflight:  make(flights[PrepareResult]),
		reloading: make(flights[*entry]),
		keys:      make(map[keyMemoKey]string),
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{solver: geometry.NewSolver(opts.Solver)}
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

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	s.mu.RUnlock()
	st.Picks = s.picks.points.Load()
	st.Index.IndexPicks = s.picks.index.Load()
	st.Index.FallbackPicks = s.picks.fallback.Load()
	st.Index.BatchRequests = s.picks.batchRequests.Load()
	st.Index.BatchPoints = s.picks.batchPoints.Load()
	st.Cache = s.cache.Stats()
	st.CachedPlanSets = st.Cache.ResidentEntries
	st.Admission = s.admission.Stats()
	if q, ok := s.opts.Shared.(interface{ Quarantined() int64 }); ok {
		st.QuarantinedBlobs = q.Quarantined()
	}
	if s.opts.Peers != nil {
		ps := s.opts.Peers.Stats()
		st.PeerRetries = ps.Retries
		st.PeerBreakerTrips = ps.BreakerTrips
	}
	if st.PipelineCapacity > 0 {
		st.PipelineUtilization = float64(st.PipelineBusy) / float64(st.PipelineCapacity)
		if st.PipelineUtilization > 1 {
			st.PipelineUtilization = 1
		}
	}
	s.cache.Range(func(_ string, v any) {
		e := v.(*entry)
		if e.idx == nil {
			return
		}
		st.Index.IndexedPlanSets++
		st.Index.Leaves += int64(e.idx.Leaves())
		st.Index.LeafCandidates += e.idx.LeafCandidateTotal()
	})
	if st.Index.Leaves > 0 {
		st.Index.AvgLeafCandidates = float64(st.Index.LeafCandidates) / float64(st.Index.Leaves)
	}
	return st
}

// PlanSet returns the cached plan set for a key, for inspection. It
// does not reload evicted entries.
func (s *Server) PlanSet(key string) (*store.PlanSet, bool) {
	v, ok := s.cache.Get(key, false)
	if !ok {
		return nil, false
	}
	return v.(*entry).set, true
}

// retainDocs reports whether cached entries keep their serialized
// document bytes: required for footprint accounting (CacheBytes), for
// serving peers and re-publishing (Shared), and on servers that fetch
// from peers (symmetric fleets list every member in every member's
// peer set, so a fetcher is usually also a provider). Plain in-memory
// servers drop the bytes after deserializing.
func (s *Server) retainDocs() bool {
	return s.opts.CacheBytes > 0 || s.opts.Shared != nil || s.opts.Peers != nil
}

// Document returns the serialized plan-set document for a key — the
// bytes a peer fetching through fleet.PlanSetPath receives. It serves
// from the in-memory cache, the Options.Dir document, or the shared
// store, and never computes or consults peers itself (peer chains
// must not turn one fetch into a fleet-wide cascade). Keys that do
// not have the planSetKey shape are unknown by construction — in
// particular, a path-traversal "key" never reaches the filesystem.
func (s *Server) Document(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlanSet, key)
	}
	if v, ok := s.cache.Get(key, false); ok {
		if doc := v.(*entry).doc; doc != nil {
			return doc, nil
		}
	}
	var doc []byte
	if s.localDoc(key, func(d []byte, _ entrySource) bool { doc = d; return true }) {
		return doc, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownPlanSet, key)
}

// Key computes the plan-set cache key of a template under this server's
// optimizer configuration without preparing it: a hash of the schema,
// the cost-model configuration and the optimizer configuration (plus
// the store format version, since the cached sets round-trip through
// it).
func (s *Server) Key(tpl Template) (string, error) {
	key, _, _, _, err := s.templateKey(tpl)
	return key, err
}

// templateKey returns tpl's plan-set key and resolved ε, plus the
// resolved schema and cost-model configuration that hashed to the key.
// A generated template (no explicit Schema or Cloud) seen before takes
// its key from the memo instead, skipping workload generation and the
// key hash; schema is then nil, and a caller that needs it resolves tpl
// itself.
func (s *Server) templateKey(tpl Template) (key string, epsilon float64, schema *catalog.Schema, cloudCfg cloud.Config, err error) {
	epsilon, epsErr := s.resolveEpsilon(tpl)
	memo := tpl.Schema == nil && tpl.Cloud == nil && epsErr == nil
	mk := keyMemoKey{workload: tpl.Workload, epsBits: math.Float64bits(epsilon)}
	if memo {
		s.keyMu.Lock()
		k, ok := s.keys[mk]
		s.keyMu.Unlock()
		if ok {
			return k, epsilon, nil, cloud.Config{}, nil
		}
	}
	if schema, cloudCfg, err = tpl.resolve(); err != nil {
		return "", 0, nil, cloud.Config{}, err
	}
	if epsErr != nil {
		return "", 0, nil, cloud.Config{}, epsErr
	}
	if key, err = planSetKey(schema, cloudCfg, s.opts.Optimizer, s.opts.Solver, epsilon); err != nil {
		return "", 0, nil, cloud.Config{}, err
	}
	if memo {
		s.keyMu.Lock()
		if len(s.keys) >= keyMemoCap {
			clear(s.keys)
		}
		s.keys[mk] = key
		s.keyMu.Unlock()
	}
	return key, epsilon, schema, cloudCfg, nil
}

// resolveEpsilon returns the approximation factor a template prepares
// under: its own override when set, the server default otherwise.
func (s *Server) resolveEpsilon(tpl Template) (float64, error) {
	epsilon := s.opts.Optimizer.Epsilon
	if tpl.Epsilon != nil {
		epsilon = *tpl.Epsilon
	}
	if epsilon < 0 || math.IsNaN(epsilon) {
		return 0, fmt.Errorf("serve: invalid epsilon %v", epsilon)
	}
	return epsilon, nil
}

// planSetKey hashes everything that determines a prepared plan set:
// the schema content, the cost-model configuration, the optimizer
// configuration that changes results (region refinements, Cartesian
// postponement, and the approximation factor — the worker count does
// not, by the determinism guarantee of the parallel wavefront), the
// geometry tolerances (which steer pruning decisions), the optimizer
// revision (core.Revision, so a directory, shared store or peer filled
// by a build that prunes differently never answers for this one), and
// the store format version the cached sets round-trip through. The
// epsilon field is what lets precision tiers share one fleet: the same
// template at a different ε is simply a different key.
func planSetKey(schema *catalog.Schema, cloudCfg cloud.Config, opts core.Options, solverCfg geometry.Config, epsilon float64) (string, error) {
	return planSetKeyAt(core.Revision, schema, cloudCfg, opts, solverCfg, epsilon)
}

// planSetKeyAt is planSetKey for the given optimizer revision.
func planSetKeyAt(revision int, schema *catalog.Schema, cloudCfg cloud.Config, opts core.Options, solverCfg geometry.Config, epsilon float64) (string, error) {
	keyDoc := struct {
		Format            int
		Optimizer         int
		Schema            *catalog.Schema
		Cloud             cloud.Config
		Region            region.Options
		PostponeCartesian bool
		Epsilon           float64
		Solver            geometry.Config
	}{
		Format:            store.FormatVersion,
		Optimizer:         revision,
		Schema:            schema,
		Cloud:             cloudCfg,
		Region:            opts.Region,
		PostponeCartesian: opts.PostponeCartesian,
		Epsilon:           epsilon,
		Solver:            solverCfg,
	}
	b, err := json.Marshal(keyDoc)
	if err != nil {
		return "", fmt.Errorf("serve: hashing template: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
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

// Prepare optimizes a template (unless its plan set is already cached),
// persists the plan set through the store format, and caches the
// deserialized set for Picks. Concurrent Prepares of the same template
// are deduplicated: one optimizes, the rest wait for its result. ctx
// cancels or deadline-bounds the request: a Prepare abandoned while
// queued never starts, and one abandoned mid-optimization stops at the
// scheduler's next checkpoint, releasing its worker, admission slot,
// and singleflight key promptly — without poisoning concurrent
// requests for the same key, which simply retry the flight.
func (s *Server) Prepare(ctx context.Context, tpl Template) (PrepareResult, error) {
	ctx = orBackground(ctx)
	key, epsilon, schema, cloudCfg, err := s.templateKey(tpl)
	if err != nil {
		return PrepareResult{}, err
	}
	res, won, err := s.inflight.do(ctx, s, key, func(e *entry) PrepareResult {
		return prepared(key, e, core.Stats{}, true)
	}, func() (PrepareResult, error) {
		if schema == nil {
			// A memoized key: the template is resolved only now that
			// its plan set is not resident, so a warm Prepare consults
			// the cache exactly as often as before the memo.
			var err error
			if schema, cloudCfg, err = tpl.resolve(); err != nil {
				return PrepareResult{}, err
			}
		}
		return s.runPrepare(ctx, key, schema, cloudCfg, epsilon)
	})
	if err != nil {
		s.noteCtxFailure(err)
		return PrepareResult{}, err
	}
	if !won {
		// A cache hit or another request's flight: this request did no
		// optimization work.
		res.Cached, res.Duration, res.Stats = true, 0, core.Stats{}
	}
	s.mu.Lock()
	s.stats.Prepares++
	if !won {
		s.stats.PrepareHits++
	}
	s.mu.Unlock()
	return res, nil
}

// prepared builds the PrepareResult of a resident entry.
func prepared(key string, e *entry, cst core.Stats, cached bool) PrepareResult {
	return PrepareResult{Key: key, NumPlans: len(e.set.Plans), Cached: cached,
		Duration: cst.Duration, Stats: cst, Epsilon: e.set.Epsilon}
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

// runPrepare executes the load-or-optimize pipeline on a pool worker,
// under the admission controller: at most MaxConcurrentPrepares
// Prepares occupy workers at once, FIFO beyond that, so a burst of
// expensive templates cannot starve Picks out of the pool. A request
// whose context fires while queued (admission FIFO or request queue)
// gives up its place without leaking the slot.
func (s *Server) runPrepare(ctx context.Context, key string, schema *catalog.Schema, cloudCfg cloud.Config, epsilon float64) (PrepareResult, error) {
	tr := s.opts.Trace.Start("prepare", key)
	release, err := s.admission.Acquire(ctx)
	if err != nil {
		tr.Finish(err)
		return PrepareResult{}, err
	}
	tr.Phase("admission_wait")
	defer release()
	var res PrepareResult
	var jerr error
	err = s.run(ctx, func(w *worker) {
		tr.Phase("queue_wait")
		res, jerr = s.prepareOn(ctx, w, key, schema, cloudCfg, epsilon, tr)
	})
	if err != nil {
		tr.Finish(err)
		return PrepareResult{}, err
	}
	tr.Finish(jerr)
	return res, jerr
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

// entrySource labels where a served document came from, for the
// per-source counters.
type entrySource int

const (
	sourceComputed entrySource = iota
	sourceDisk                 // legacy Options.Dir document
	sourceShared               // Options.Shared store
	sourcePeer                 // Options.Peers fetch
)

// name labels the source for trace events.
func (src entrySource) name() string {
	switch src {
	case sourceDisk:
		return "disk"
	case sourceShared:
		return "shared"
	case sourcePeer:
		return "peer"
	}
	return "computed"
}

// validKey reports whether key has the exact shape planSetKey
// produces: 32 lowercase hex digits. Every file- or URL-backed lookup
// refuses other shapes, so a request-supplied key (Pick reloads, the
// /planset peer endpoint) can never traverse paths under Options.Dir
// or inject segments into a peer URL.
func validKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// localDoc offers key's document from each local source in resolution
// order — the restart Dir, then the shared store — to use, stopping at
// the first one use accepts. An unreadable document is skipped like a
// missing one. It is the non-compute source walk shared by resolve
// (which continues with the peers) and Document (which never consults
// peers).
func (s *Server) localDoc(key string, use func(doc []byte, src entrySource) bool) bool {
	if s.opts.Dir != "" {
		if doc, err := s.fs.ReadFile(s.docPath(key)); err == nil && use(doc, sourceDisk) {
			return true
		}
	}
	if s.opts.Shared != nil {
		if doc, ok, err := s.opts.Shared.Get(key); err == nil && ok && use(doc, sourceShared) {
			return true
		}
	}
	return false
}

// resolve is the one route to a resident plan set, run on worker w.
// It serves the first document that deserializes cleanly from the
// ordered sources — the restart Dir, the shared store, then the peers —
// and otherwise computes it; either way the entry is admitted to the
// cache and the lookup and save phases are traced. A corrupt or
// unreadable document from any source is not fatal: the next source
// (ultimately the optimizer) takes over. Documents fetched from a peer are
// re-published to the shared store so the next sibling finds them one
// hop closer. Malformed keys resolve nowhere but the optimizer.
//
// accept, when non-nil, filters documents by their recorded
// approximation factor: one recording an unacceptable factor is
// treated as a miss, exactly like a corrupt one — defense in depth
// behind the key (which already binds ε by hash) against a document
// planted or misfiled under the wrong tier's name. A Prepare accepts
// exactly its resolved factor. Pick-time reloads pass nil and accept
// the document's own factor, which the key vouches for.
//
// compute is nil for reloads, which never optimize: a key no source
// holds is then ErrUnknownPlanSet, or ctx's error when the lookup may
// have been cut short (peer fetch aborted).
func (s *Server) resolve(ctx context.Context, w *worker, key string, accept func(eps float64) bool, compute func() (*entry, core.Stats, error), tr *obs.PrepareTrace) (*entry, entrySource, core.Stats, error) {
	var e *entry
	src := sourceComputed
	use := func(doc []byte, from entrySource) bool {
		got, err := s.newEntry(doc, w)
		if err != nil || (accept != nil && !accept(got.set.Epsilon)) {
			return false
		}
		e, src = got, from
		return true
	}
	if validKey(key) && !s.localDoc(key, use) && s.opts.Peers != nil && ctx.Err() == nil {
		if doc, ok, _ := s.opts.Peers.Fetch(ctx, key); ok && use(doc, sourcePeer) {
			s.publishShared(key, doc)
		}
	}
	tr.Phase("lookup")
	var cst core.Stats
	if e == nil {
		if compute == nil {
			if err := ctx.Err(); err != nil {
				return nil, src, cst, err
			}
			return nil, src, cst, fmt.Errorf("%w: %q", ErrUnknownPlanSet, key)
		}
		var err error
		if e, cst, err = compute(); err != nil {
			return nil, src, core.Stats{}, err
		}
	}
	tr.SetSource(src.name())
	s.admit(key, e, src)
	if src == sourceComputed {
		tr.Phase("save")
	}
	return e, src, cst, nil
}

// admit publishes a resolved entry into the memory-accounted cache (the
// first insert of a key wins) and bumps its source counter.
func (s *Server) admit(key string, e *entry, src entrySource) {
	s.cache.Add(key, e, e.footprint(), false)
	s.mu.Lock()
	switch src {
	case sourceDisk:
		s.stats.PrepareDiskHits++
	case sourceShared:
		s.stats.SharedHits++
	case sourcePeer:
		s.stats.PeerHits++
	}
	s.mu.Unlock()
}

// publishShared best-effort publishes a document to the shared store.
func (s *Server) publishShared(key string, doc []byte) {
	if s.opts.Shared == nil {
		return
	}
	if err := s.opts.Shared.Put(key, doc); err == nil {
		s.mu.Lock()
		s.stats.SharedPuts++
		s.mu.Unlock()
	}
}

// prepareOn runs on a pool worker: resolve the key's plan set through
// the ordered sources, optimizing when none has it. Picks therefore
// serve exactly the bytes a separate run-time process would load,
// wherever they came from.
func (s *Server) prepareOn(ctx context.Context, w *worker, key string, schema *catalog.Schema, cloudCfg cloud.Config, epsilon float64, tr *obs.PrepareTrace) (PrepareResult, error) {
	accept := func(got float64) bool { return got == epsilon }
	e, src, cst, err := s.resolve(ctx, w, key, accept, func() (*entry, core.Stats, error) {
		return s.computeEntry(ctx, w, key, schema, cloudCfg, epsilon, tr)
	}, tr)
	if err != nil {
		return PrepareResult{}, err
	}
	tr.SetEpsilon(e.set.Epsilon)
	return prepared(key, e, cst, src != sourceComputed), nil
}

// computeEntry optimizes a template at one approximation factor on
// worker w and round-trips the result through the store format: the
// returned entry is deserialized from exactly the bytes persisted to
// Dir and published to the shared store, so picks serve what a
// separate process would load.
func (s *Server) computeEntry(ctx context.Context, w *worker, key string, schema *catalog.Schema, cloudCfg cloud.Config, epsilon float64, tr *obs.PrepareTrace) (*entry, core.Stats, error) {
	model, err := cloud.NewModel(schema, cloudCfg, w.solver)
	if err != nil {
		return nil, core.Stats{}, err
	}
	opts := s.opts.Optimizer
	opts.Context = w.solver
	opts.Algebra = nil
	opts.Epsilon = epsilon
	if opts.Workers == 0 {
		// Request-level concurrency comes from the pool; one Prepare
		// stays on its worker unless explicitly configured otherwise.
		opts.Workers = 1
	}
	if s.opts.DonateWorkers {
		// Idle pool workers may join this optimization's split jobs and
		// ready masks.
		opts.Donor = (*serverDonor)(s)
	}
	result, err := core.OptimizeCtx(ctx, schema, model, opts)
	tr.Phase("optimize")
	if err != nil {
		return nil, core.Stats{}, err
	}
	s.recordPipeline(result.Stats)

	// With the pick index enabled, build it over the optimizer's plan
	// set now so the persisted document carries it (restarted servers
	// and shared stores skip the rebuild).
	var ix *index.Index
	if s.opts.Index {
		ix = s.buildIndex(w, model.Space(), result.Plans)
		tr.Phase("index_build")
	}

	// Failures past this point are server-side (serialization,
	// persistence), not the client's template; wrap them in ErrInternal
	// so transports report 5xx instead of 4xx.
	var buf bytes.Buffer
	if err := store.SaveIndexedEpsilon(&buf, model.MetricNames(), model.Space(), result.Plans, ix, epsilon); err != nil {
		return nil, core.Stats{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	if s.opts.Dir != "" {
		if err := s.persist(key, buf.Bytes()); err != nil {
			return nil, core.Stats{}, fmt.Errorf("%w: persisting plan set: %v", ErrInternal, err)
		}
	}
	s.publishShared(key, buf.Bytes())
	e, err := s.newEntry(buf.Bytes(), w)
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("%w: reloading saved plan set: %v", ErrInternal, err)
	}
	return e, result.Stats, nil
}

// serverDonor adapts the server's idle pool capacity to the
// optimizer's DonorPool: when the request queue is empty and workers
// are idle, an in-flight Prepare's split jobs may borrow them. Offers
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

// buildIndex builds the pick index over a just-optimized plan set,
// recording the build in the index stats. A failed build (e.g. an
// unbounded parameter space) is not fatal: the entry serves through the
// linear scan instead.
func (s *Server) buildIndex(w *worker, space *geometry.Polytope, plans []*core.PlanInfo) *index.Index {
	cands := make([]selection.Candidate, 0, len(plans))
	for _, info := range plans {
		cost, ok := info.Cost.(*pwl.Multi)
		if !ok {
			return nil // non-PWL algebra; Save will reject the set anyway
		}
		cands = append(cands, selection.Candidate{Plan: info.Plan, Cost: cost, RR: info.RR})
	}
	ix, err := index.Build(w.solver, space, cands, s.opts.IndexOptions)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	s.stats.Index.Builds++
	s.stats.Index.BuildTime += ix.BuildTime()
	s.mu.Unlock()
	return ix
}

// recordPipeline merges one optimization's dependency-scheduler metrics
// into the server's pipeline-utilization aggregate.
func (s *Server) recordPipeline(st core.Stats) {
	s.mu.Lock()
	s.stats.PipelineBusy += st.Scheduler.Busy
	s.stats.PipelineCapacity += time.Duration(int64(st.Scheduler.Wall) * int64(st.Workers))
	s.stats.SplitJobs += int64(st.Scheduler.SplitJobs)
	s.stats.DonatedMasks += int64(st.Scheduler.DonatedMasks)
	s.mu.Unlock()
}

// newEntry deserializes a document and precomputes the selection
// candidates and their plans' reply text. With the pick index enabled, the document's persisted
// index is used when present; otherwise (older documents, documents
// written by index-less servers) one is rebuilt on load. Either way the
// per-leaf candidate subsets are materialized once here, so a pick is a
// tree descent plus a subset scan.
func (s *Server) newEntry(doc []byte, w *worker) (*entry, error) {
	set, err := store.Load(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	cands := make([]selection.Candidate, len(set.Plans))
	texts := make(planTexts, len(set.Plans))
	for i, lp := range set.Plans {
		cands[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
		texts[lp.Plan] = quotePlan(lp.Plan)
	}
	e := &entry{set: set, candidates: cands, texts: texts}
	if s.retainDocs() {
		e.doc = doc
	}
	if s.opts.Index {
		e.idx = set.Index
		if e.idx == nil {
			// Rebuild-on-load: the document was written without an index
			// stanza. A failed build falls back to the linear scan.
			if ix, err := index.Build(w.solver, set.Space, cands, s.opts.IndexOptions); err == nil {
				e.idx = ix
				s.mu.Lock()
				s.stats.Index.Builds++
				s.stats.Index.BuildTime += ix.BuildTime()
				s.mu.Unlock()
			}
		}
		if e.idx != nil {
			e.leafCands, e.viewBytes = e.idx.LeafViews(cands)
		}
	}
	return e, nil
}

func (s *Server) docPath(key string) string {
	return filepath.Join(s.opts.Dir, key+".json")
}

// persist writes the document through the fleet package's fsync'd
// atomic write (temp file + rename + directory sync) — the same
// durability the shared store gives the same bytes.
func (s *Server) persist(key string, doc []byte) error {
	return fleet.WriteFileAtomic(s.fs, s.opts.Dir, s.docPath(key), doc)
}

// Pick evaluates a selection policy at a parameter point against a
// prepared plan set. ctx cancels or deadline-bounds the request: a Pick
// whose ctx is done never starts, and neither does one abandoned while
// queued for a reload.
func (s *Server) Pick(ctx context.Context, req PickRequest) (PickResult, error) {
	return pickOn(ctx, s, req.Key, func(e *entry) (PickResult, error) {
		return s.pickEntry(e, req)
	})
}

// pickOn runs one pick-shaped request against key's entry and counts a
// failure on its context once, at the API boundary. A resident entry is
// pinned and picked on the caller's goroutine: selection on the
// immutable entry needs no solver, so it never waits in the queue
// behind optimizer work. Only an entry that must be reloaded (decoded,
// perhaps indexed) takes a pool worker, through the reload
// singleflight.
func pickOn[R any](ctx context.Context, s *Server, key string, on func(e *entry) (R, error)) (R, error) {
	ctx = orBackground(ctx)
	var res R
	err := s.accepting(ctx)
	if err == nil {
		if v, ok := s.cache.Get(key, true); ok {
			func() {
				defer s.cache.Unpin(key)
				res, err = on(v.(*entry))
			}()
		} else {
			var jerr error
			err = s.run(ctx, func(w *worker) {
				e, release, rerr := s.reload(ctx, key, w)
				if rerr != nil {
					jerr = rerr
					return
				}
				defer release()
				res, jerr = on(e)
			})
			if err == nil {
				err = jerr
			}
		}
	}
	if err != nil {
		// res is the zero value here: either the pick never ran, or it
		// failed and returned none.
		s.noteCtxFailure(err)
	}
	return res, err
}

// accepting reports why a request may not start: the server is closed,
// or ctx is already done.
func (s *Server) accepting(ctx context.Context) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrServerClosed
	}
	return ctx.Err()
}

// PickBatchRequest evaluates one selection policy at many parameter
// points against one prepared plan set — the high-pick-rate interface
// the pick index is built for. The policy fields mirror PickRequest.
type PickBatchRequest struct {
	// Key is the plan-set key returned by Prepare.
	Key string
	// Points are the parameter vectors to pick for, answered in order.
	Points []geometry.Vector
	// Policy selects the preference policy; the zero value means
	// PolicyFrontier.
	Policy Policy
	// Weights configures PolicyWeightedSum.
	Weights []float64
	// Minimize and Bounds configure PolicyMinimizeSubjectTo.
	Minimize int
	Bounds   []selection.Bound
	// Order configures PolicyLexicographic.
	Order []int
}

// PickBatchResult answers a PickBatchRequest: Choices[i] are the
// selected plans for Points[i].
type PickBatchResult struct {
	// Metrics names the cost components.
	Metrics []string
	// Choices holds, per point, the selected plans (exactly one for the
	// single-plan policies).
	Choices [][]selection.Choice
	// Epsilon is the approximation factor of the plan set the batch was
	// served from.
	Epsilon float64

	texts planTexts
}

// PlanJSON is PickResult.PlanJSON for the batch's plans.
func (r PickBatchResult) PlanJSON(n *plan.Node) []byte { return r.texts.quoted(n) }

// PickBatch evaluates a selection policy at every point of the request
// against a prepared plan set, as one queued unit of work. Points are
// sorted into index cells first, so consecutive picks of one cell reuse
// its candidate subset; answers come back in request order and are
// byte-identical to issuing the Picks one by one. Any invalid point or
// selection failure fails the whole batch (the error names the point).
func (s *Server) PickBatch(ctx context.Context, req PickBatchRequest) (PickBatchResult, error) {
	return pickOn(ctx, s, req.Key, func(e *entry) (PickBatchResult, error) {
		return s.pickBatchEntry(e, req)
	})
}

// pickBatchEntry executes a batch against e.
func (s *Server) pickBatchEntry(e *entry, req PickBatchRequest) (PickBatchResult, error) {
	if !validPolicy(req.Policy) {
		// Request-shape problems are reported as such, before any
		// per-point validation, and even for empty batches.
		return PickBatchResult{}, fmt.Errorf("serve: unknown policy %q", req.Policy)
	}
	for i, x := range req.Points {
		if err := e.validatePoint(x); err != nil {
			return PickBatchResult{}, fmt.Errorf("point %d: %w", i, err)
		}
	}
	// Route every point to its cell, then process in cell order: picks
	// sharing a leaf run back to back on the same (cache-hot) candidate
	// subset. Fallback points (no index, or outside the box) share the
	// full candidate set and run first.
	leaves := make([]int32, len(req.Points))
	indexPicks := 0
	for i, x := range req.Points {
		leaves[i] = -1
		if e.idx != nil {
			if leaf, _, ok := e.idx.Locate(x); ok {
				leaves[i] = leaf
				indexPicks++
			}
		}
	}
	order := make([]int, len(req.Points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return leaves[order[a]] < leaves[order[b]] })

	shell := PickRequest{
		Policy:   req.Policy,
		Weights:  req.Weights,
		Minimize: req.Minimize,
		Bounds:   req.Bounds,
		Order:    req.Order,
	}
	choices := make([][]selection.Choice, len(req.Points))
	for _, i := range order {
		cands := e.candidates
		if leaves[i] >= 0 {
			cands = e.leafCands[leaves[i]]
		}
		shell.Point = req.Points[i]
		cs, err := applyPolicy(cands, shell)
		if err != nil {
			return PickBatchResult{}, fmt.Errorf("point %d: %w", i, err)
		}
		choices[i] = cs
	}
	s.notePicks(len(req.Points), indexPicks, true)
	return PickBatchResult{Metrics: e.set.Metrics, Choices: choices,
		Epsilon: e.set.Epsilon, texts: e.texts}, nil
}

// pickEntry executes a Pick against e. Selection is pure point
// evaluation (the relevance-region fast path needs no LPs), so it needs
// no solver. With a pick index on the entry, the point is routed to its
// cell and only the cell's candidate subset is scanned — byte-identical
// to the linear fallback by the index's conservative construction.
func (s *Server) pickEntry(e *entry, req PickRequest) (PickResult, error) {
	if err := e.validatePoint(req.Point); err != nil {
		return PickResult{}, err
	}
	cands, viaIndex := e.lookup(req.Point)
	choices, err := applyPolicy(cands, req)
	if err != nil {
		return PickResult{}, err
	}
	indexPicks := 0
	if viaIndex {
		indexPicks = 1
	}
	s.notePicks(1, indexPicks, false)
	return PickResult{Metrics: e.set.Metrics, Choices: choices,
		Epsilon: e.set.Epsilon, texts: e.texts}, nil
}

// notePicks counts one request's served pick points — indexPicks of
// them through the index, the rest by the linear scan.
func (s *Server) notePicks(points, indexPicks int, batch bool) {
	n := int64(points)
	s.picks.points.Add(n)
	s.picks.index.Add(int64(indexPicks))
	s.picks.fallback.Add(n - int64(indexPicks))
	if batch {
		s.picks.batchRequests.Add(1)
		s.picks.batchPoints.Add(n)
	}
}

// reload brings an evicted (or never-seen) plan set back from the
// non-compute sources (Dir, shared store, peers) through the reload
// singleflight; a reload never computes. It accepts the document's own
// approximation factor: the request addressed the tier by key, and the
// key hash already binds ε. The entry is pinned against eviction for
// the duration of the request; callers must call the returned release
// exactly once.
func (s *Server) reload(ctx context.Context, key string, w *worker) (*entry, func(), error) {
	e, _, err := s.reloading.do(ctx, s, key, func(e *entry) *entry { return e }, func() (*entry, error) {
		e, _, _, err := s.resolve(ctx, w, key, nil, nil, nil)
		if err == nil {
			s.mu.Lock()
			s.stats.Reloads++
			s.mu.Unlock()
		}
		return e, err
	})
	if err != nil {
		return nil, nil, err
	}
	if v, ok := s.cache.Get(key, true); ok {
		return v.(*entry), func() { s.cache.Unpin(key) }, nil
	}
	// The re-admitted entry was already evicted again (budget pressure):
	// serve the loaded object unpinned — it stays alive for this
	// request regardless of cache membership.
	return e, func() {}, nil
}

// validatePoint rejects points the stored plan set cannot price.
func (e *entry) validatePoint(x geometry.Vector) error {
	if len(x) != e.set.Space.Dim() {
		return fmt.Errorf("serve: point dimension %d, want %d", len(x), e.set.Space.Dim())
	}
	if !e.set.Space.ContainsPoint(x, geometry.CompareEps) {
		// Outside the parameter space the stored cost pieces would be
		// extrapolated and relevance regions are meaningless; reject
		// instead of fabricating a result.
		return fmt.Errorf("serve: point %v outside the plan set's parameter space", x)
	}
	return nil
}

// validPolicy reports whether p names a selection policy.
func validPolicy(p Policy) bool {
	switch p {
	case PolicyFrontier, "", PolicyWeightedSum, PolicyMinimizeSubjectTo, PolicyLexicographic:
		return true
	}
	return false
}

// applyPolicy runs the request's selection policy over a candidate set.
func applyPolicy(cands []selection.Candidate, req PickRequest) ([]selection.Choice, error) {
	switch req.Policy {
	case PolicyFrontier, "":
		return selection.Frontier(cands, req.Point), nil
	case PolicyWeightedSum:
		c, err := selection.WeightedSum(cands, req.Point, req.Weights)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	case PolicyMinimizeSubjectTo:
		c, err := selection.MinimizeSubjectTo(cands, req.Point, req.Minimize, req.Bounds)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	case PolicyLexicographic:
		c, err := selection.Lexicographic(cands, req.Point, req.Order)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q", req.Policy)
	}
}
