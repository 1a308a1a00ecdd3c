package serve

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/obs"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/store"
)

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

// Prepare optimizes a template (unless its plan set is already cached),
// persists the plan set through the store format, and caches the
// deserialized set for Picks. Concurrent Prepares of the same template
// are deduplicated: one optimizes, the rest wait for its result. ctx
// cancels or deadline-bounds the request: a Prepare abandoned while
// queued never starts, and one abandoned mid-optimization stops at the
// scheduler's next checkpoint, releasing its worker and singleflight
// key promptly — without poisoning concurrent requests for the same
// key, which simply retry the flight.
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

// runPrepare executes the load-or-optimize pipeline on a pool worker.
// A request whose context fires while queued gives up its place
// without the work ever starting.
func (s *Server) runPrepare(ctx context.Context, key string, schema *catalog.Schema, cloudCfg cloud.Config, epsilon float64) (PrepareResult, error) {
	tr := s.opts.Trace.Start("prepare", key)
	var res PrepareResult
	var jerr error
	err := s.run(ctx, func(w *worker) {
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
		// Idle pool workers may plan this optimization's ready masks.
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
	ix, err := index.Build(w.solver, space, cands, s.indexOptions())
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
			if ix, err := index.Build(w.solver, set.Space, cands, s.indexOptions()); err == nil {
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

// indexOptions configures pick-index builds: the index package
// defaults, parallelized across the pool's width (the building
// worker's siblings are idle while its Prepare holds them off).
func (s *Server) indexOptions() index.Options {
	return index.Options{Workers: s.opts.Workers}
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
