package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/region"
)

// Revision numbers the optimizer's plan-set semantics: equal inputs
// give byte-identical plan sets under one Revision. Any change that
// alters a plan set (prune order, dominance, tolerances) bumps it, so
// caches keyed by it (serve's plan-set keys) never hand out another
// revision's sets. Revision 2 prunes each join mask's candidates in
// presort order (DESIGN.md, "Candidate presort").
const Revision = 2

// Options configures an optimizer run.
type Options struct {
	// Region configures relevance regions (emptiness strategy and the
	// Section 6.2 refinements).
	Region region.Options
	// PostponeCartesian skips splits without a connecting join
	// predicate whenever an edged split exists, the heuristic of
	// state-of-the-art optimizers adopted by the paper's experiments.
	PostponeCartesian bool
	// Context supplies tolerances and LP counters; a fresh context is
	// created when nil. With Workers > 1 it remains the solver of the
	// first worker and receives the merged Stats of all workers.
	Context *geometry.Solver
	// Algebra supplies cost operations; defaults to a PWLAlgebra over
	// Context with sum accumulation on every metric. Custom algebras
	// must implement ForkableAlgebra to enable the parallel scheduler.
	Algebra Algebra
	// KeepPerSet retains the Pareto plan sets of all intermediate table
	// sets in the result, for inspection and validation. The returned
	// map and its slices are fresh copies, so reshaping them cannot
	// affect other result fields; the *PlanInfo values themselves are
	// shared with Result.Plans and must be treated as read-only.
	KeepPerSet bool
	// Workers is the number of goroutines pulling runnable table sets
	// from the dependency scheduler (see DESIGN.md, "Concurrency
	// model"). Zero selects GOMAXPROCS; 1 plans every mask on the
	// caller's goroutine. Any worker count produces identical plan sets
	// and identical aggregate geometry Stats: per-mask work is
	// self-contained, the sharded store publishes complete sets
	// atomically, the per-polytope Chebyshev memo solves every memoized
	// LP exactly once, and every mask is planned whole by one worker.
	// The CostModel must tolerate concurrent calls when Workers > 1.
	Workers int
	// Donor, when non-nil, lends transient goroutines to this run:
	// whenever masks become ready beyond what the resident workers can
	// absorb, the scheduler offers whole-mask work to the donor's idle
	// capacity (the serving layer donates idle solver-pool workers this
	// way — elastic intra-query parallelism, even for a Workers == 1
	// run). Donated workers run on their own solver and algebra forks,
	// so results and aggregate LP statistics are identical with or
	// without donation. Requires a ForkableAlgebra; ignored otherwise.
	Donor DonorPool
	// Epsilon enables the ε-approximate prune: a candidate plan is
	// dropped outright when, everywhere in the parameter space, some
	// already-kept plan's cost is within a multiplicative (1+ε_l)
	// factor of dominating it on every metric. Near-dominated cluster
	// members never enter the set, shrinking the Pareto plan set (and
	// with it LP counts, store bytes, and pick latency downstream) at
	// the price of a certified bound on regret: the cost of the best
	// kept plan exceeds the best exact plan by at most a (1+Epsilon)
	// factor per metric. The per-level slack is allocated as ε_l =
	// (1+Epsilon)^(1/L) − 1 over the L lattice levels; each pruned
	// plan's witness is a kept plan whose region then only shrinks
	// under exact dominance, so the factor compounds once per level
	// and bottom-up to exactly (1+Epsilon) — see pruneEps for why the
	// gate-only design is what makes this sound. Zero runs the exact
	// algorithm, bit-for-bit the historical path. Negative values are
	// rejected; positive values require an EpsilonAlgebra. Plans for
	// each table set arrive in the deterministic presort order (see
	// DESIGN.md, "Candidate presort"), so the worker-count determinism
	// contract holds at every Epsilon.
	Epsilon float64
	// MaxPlansPerSet aborts the run with ErrPlanBudget as soon as any
	// table set's Pareto plan set exceeds this size — the guard that
	// turns an exponentially exploding many-objective frontier into a
	// clean error instead of an unbounded computation (raise Epsilon to
	// shrink the frontier under the budget). Zero means unlimited. The
	// budget only converts runs into errors — it never alters the plan
	// sets of runs that complete — and whether it trips is independent
	// of the worker count, so it is not part of the plan-set identity.
	MaxPlansPerSet int
}

// DefaultOptions mirrors the configuration of the paper's experiments.
func DefaultOptions() Options {
	return Options{
		Region:            region.DefaultOptions(),
		PostponeCartesian: true,
	}
}

// PlanInfo is a plan of a Pareto plan set together with its cost
// function and relevance region (the relevance mapping of Section 2).
type PlanInfo struct {
	Plan *plan.Node
	Cost Cost
	RR   *region.Region
	// samples caches Algebra.Eval of Cost at the run's screening
	// samples (optimizer.samples), for the whole-space dominance screen
	// of pruneInsert, which fills it for every plan it inserts.
	samples []geometry.Vector
}

// candidate is a plan on its way into the prune: its cost, the cost at
// the run's screening samples, and its presort key.
type candidate struct {
	plan    *plan.Node
	cost    Cost
	samples []geometry.Vector
	key     float64
}

// Stats reports the work of an optimizer run; CreatedPlans and the LP
// count inside Geometry are the quantities of Figure 12.
type Stats struct {
	// CreatedPlans counts every generated plan, including partial plans
	// and plans pruned during optimization (Figure 12, middle row).
	CreatedPlans int
	// PrunedPlans counts plans discarded because their relevance region
	// became empty.
	PrunedPlans int
	// FinalPlans is the size of the returned Pareto plan set.
	FinalPlans int
	// MaxPlansPerSet is the largest Pareto set size over all table sets
	// (bounded in expectation by Theorem 6).
	MaxPlansPerSet int
	// Workers is the worker count the run actually used.
	Workers int
	// Geometry carries LP counts (Figure 12, bottom row) and related
	// counters, merged across all workers.
	Geometry geometry.Stats
	// Scheduler reports the dependency scheduler's pipeline metrics
	// (donated masks, worker utilization). These are scheduling
	// metrics, not determinism-contract quantities: they may differ
	// between runs and worker counts.
	Scheduler SchedulerStats
	// Duration is the wall-clock optimization time (Figure 12, top
	// row).
	Duration time.Duration
}

// PipelineUtilization returns the mean fraction of the worker pool kept
// busy while the dependency scheduler ran (1.0 = perfectly pipelined).
func (s Stats) PipelineUtilization() float64 {
	return s.Scheduler.Utilization(s.Workers)
}

// Result of an optimization: the Pareto plan set for the full query with
// the relevance mapping, plus statistics.
type Result struct {
	// Query is the full table set.
	Query catalog.TableSet
	// Plans is the Pareto plan set (PPS) for the query.
	Plans []*PlanInfo
	// PerSet holds the PPS of every planned table set (only when
	// Options.KeepPerSet). The map and its slices are fresh copies
	// owned by the caller; the *PlanInfo values are shared with Plans
	// and must be treated as read-only.
	PerSet map[catalog.TableSet][]*PlanInfo
	// Stats is the run's work summary.
	Stats Stats
}

// ErrPlanBudget reports a run aborted because a table set's Pareto
// plan set exceeded Options.MaxPlansPerSet. Raising Epsilon (or the
// budget) lets the run complete.
var ErrPlanBudget = errors.New("core: plan-set budget exceeded")

// OptimizeCtx runs RRPA (Algorithm 1) on the query described by
// schema, with operator costs from model, and returns a Pareto plan set
// for the full query. With the default PWL algebra this is PWL-RRPA.
//
// Cancellation is cooperative: the run checks runCtx between masks and
// stops promptly — workers, donated goroutines, and the caller all
// unwind — returning runCtx's error.
// Checkpoints are passive, so any run that completes without observing
// a done context is byte-identical to an uncancelled run.
func OptimizeCtx(runCtx context.Context, schema *catalog.Schema, model CostModel, opts Options) (*Result, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if runCtx == nil {
		runCtx = context.Background() //mpq:ctxroot a nil ctx defaults to an uncancellable root at the API boundary
	}
	if err := runCtx.Err(); err != nil {
		return nil, fmt.Errorf("core: optimize: %w", err)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = geometry.NewSolver(geometry.Config{})
	}
	algebra := opts.Algebra
	if algebra == nil {
		algebra = NewPWLAlgebra(ctx, len(model.MetricNames()))
	}
	if opts.Epsilon < 0 {
		return nil, fmt.Errorf("core: optimize: negative epsilon %v", opts.Epsilon)
	}
	if opts.Epsilon > 0 {
		if _, ok := algebra.(EpsilonAlgebra); !ok {
			return nil, fmt.Errorf("core: optimize: epsilon %v requires an EpsilonAlgebra, got %T", opts.Epsilon, algebra)
		}
	}
	o := &optimizer{
		schema: schema,
		model:  model,
		ctx:    ctx,
		opts:   opts,
		runCtx: runCtx,
	}
	o.setupWorkers(algebra)
	return o.run()
}

type optimizer struct {
	schema  *catalog.Schema
	model   CostModel
	ctx     *geometry.Solver
	opts    Options
	runCtx  context.Context // cancellation signal; never nil
	store   *planStore
	stats   Stats
	workers []*worker
	// forkable is the algebra's ForkableAlgebra side, kept for forking
	// donated workers mid-run (nil when the algebra cannot fork).
	forkable ForkableAlgebra
	// epsLevel is the per-prune multiplicative slack of the
	// ε-approximate prune, (1+Epsilon)^(1/L) − 1 over the L lattice
	// levels; zero on exact runs (which never consult it).
	epsLevel float64
	// budgetExceeded flips when a completed table set's plan count
	// exceeds Options.MaxPlansPerSet; the scheduler aborts and run()
	// reports ErrPlanBudget.
	budgetExceeded atomic.Bool
	// samples is the deterministic point grid of the whole-space
	// dominance screen (see pruneInsert): 3 points per dimension over
	// the parameter space's bounding box, computed once per run on the
	// run's own solver before any worker starts, so the LP count does
	// not depend on the worker count.
	samples []geometry.Vector
}

// noteSetSize records a completed table set's plan count against
// Options.MaxPlansPerSet and reports whether the budget tripped. Set
// sizes are schedule-independent (the determinism contract), so the
// outcome is identical for any worker count.
func (o *optimizer) noteSetSize(n int) bool {
	if o.opts.MaxPlansPerSet > 0 && n > o.opts.MaxPlansPerSet {
		o.budgetExceeded.Store(true)
		return true
	}
	return false
}

func (o *optimizer) budgetErr() error {
	return fmt.Errorf("core: optimize: %w: a table set exceeded %d plans (raise Epsilon or MaxPlansPerSet)",
		ErrPlanBudget, o.opts.MaxPlansPerSet)
}

// worker is the per-goroutine state of the scheduler: a forked geometry
// solver, an algebra bound to it, and local plan counters. workers[0]
// aliases the optimizer's own solver and algebra and runs on the
// caller's goroutine.
type worker struct {
	o       *optimizer
	solver  *geometry.Solver
	algebra Algebra
	created int
	pruned  int
	busy    time.Duration
}

// setupWorkers decides the worker count and builds per-worker state.
// The parallel path requires a ForkableAlgebra; otherwise the run falls
// back to one worker.
func (o *optimizer) setupWorkers(algebra Algebra) {
	n := o.opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	forkable, ok := algebra.(ForkableAlgebra)
	if !ok {
		n = 1
	} else {
		o.forkable = forkable
	}
	o.workers = make([]*worker, n)
	o.workers[0] = &worker{o: o, solver: o.ctx, algebra: algebra}
	for i := 1; i < n; i++ {
		s := o.ctx.Fork()
		o.workers[i] = &worker{o: o, solver: s, algebra: forkable.Fork(s)}
	}
	o.stats.Workers = n
}

func (o *optimizer) run() (*Result, error) {
	start := time.Now() //mpq:wallclock Stats.Duration timing; never reaches plan bytes
	statsBefore := o.ctx.Stats

	// Decide the schedule up front: every scheduled table set gets a
	// slot in the sharded store, so completion marks and dependency
	// counts refer to a fixed universe.
	n := o.schema.NumTables()
	all := o.schema.AllTables()
	masks := o.scheduleMasks()
	storeMasks := make([]catalog.TableSet, 0, n+len(masks))
	for i := 0; i < n; i++ {
		storeMasks = append(storeMasks, catalog.SetOf(catalog.TableID(i)))
	}
	storeMasks = append(storeMasks, masks...)
	o.store = newPlanStore(n, storeMasks)
	o.samples = screenSamples(o.ctx, o.model.Space())

	// ε-approximate runs allocate the (1+ε) factor over the lattice
	// depth up front, so every prune at every level applies identical
	// slack regardless of the schedule.
	if o.opts.Epsilon > 0 && n > 0 {
		o.epsLevel = math.Pow(1+o.opts.Epsilon, 1/float64(n)) - 1
	}

	// Initialize plan sets for base tables (Algorithm 1 lines 3-6):
	// consider all scan plans and prune. Base tables run on the first
	// worker; this also deterministically warms the shared parameter-
	// space memos before any parallel task starts.
	w0 := o.workers[0]
	for i := range o.schema.Tables {
		if err := o.runCtx.Err(); err != nil {
			return nil, fmt.Errorf("core: optimize: %w", err)
		}
		t := catalog.TableID(i)
		q := catalog.SetOf(t)
		var cur []*PlanInfo
		for _, alt := range o.model.ScanAlternatives(t) {
			cur = w0.prune(cur, w0.newCandidate(plan.Scan(t, alt.Op), alt.Cost))
		}
		if len(cur) == 0 {
			return nil, fmt.Errorf("core: no scan plan for table %d", i)
		}
		o.store.complete(q, cur)
		if o.noteSetSize(len(cur)) {
			return nil, o.budgetErr()
		}
	}

	// Plan the join masks through the dependency scheduler (Algorithm 1
	// lines 7-13, pipelined): a mask runs the moment every scheduled
	// strict subset has completed, not when its whole cardinality class
	// has.
	sched := newScheduler(o, masks)
	o.stats.Scheduler = sched.run()
	// A budget trip aborted the schedule: the plan sets computed so far
	// are valid but the run as a whole cannot answer the query within
	// the budget. Checked before the context error — a budget abort is
	// the more specific cause.
	if o.budgetExceeded.Load() {
		return nil, o.budgetErr()
	}
	// A run cancelled mid-schedule left masks unplanned; report the
	// context error rather than a misleading "no plan". A cancellation
	// that arrived after the last mask completed changes nothing — the
	// finished result is returned as usual.
	if sched.incomplete() {
		if err := o.runCtx.Err(); err != nil {
			return nil, fmt.Errorf("core: optimize: %w", err)
		}
	}

	// Merge the resident workers and the donated ones (help offered
	// from outside the pool; sched.run has already waited for all of
	// them). w0's solver is the run's own, which receives the merge.
	for _, w := range slices.Concat(o.workers, sched.donated) {
		o.stats.CreatedPlans += w.created
		o.stats.PrunedPlans += w.pruned
		o.stats.Scheduler.Busy += w.busy
		if w != w0 {
			o.ctx.Stats.Add(w.solver.DrainStats())
		}
	}

	final := o.store.get(all)
	if len(final) == 0 && n > 0 {
		return nil, errors.New("core: no plan for the full query")
	}
	o.stats.FinalPlans = len(final)
	o.stats.MaxPlansPerSet = o.store.maxSetSize()
	o.stats.Duration = time.Since(start) //mpq:wallclock Stats.Duration timing; never reaches plan bytes
	o.stats.Geometry = o.ctx.Stats
	o.stats.Geometry.Sub(statsBefore)

	res := &Result{Query: all, Plans: final, Stats: o.stats}
	if o.opts.KeepPerSet {
		res.PerSet = o.store.snapshot()
	}
	return res, nil
}

// scheduleMasks lists the join masks (cardinality >= 2) the run will
// plan, in deterministic cardinality-then-value order. Disconnected
// subsets of a connected query graph are never needed when Cartesian
// products are postponed, exactly as in the sequential algorithm.
func (o *optimizer) scheduleMasks() []catalog.TableSet {
	n := o.schema.NumTables()
	all := o.schema.AllTables()
	fullyConnected := o.schema.Connected(all)
	var masks []catalog.TableSet
	for k := 2; k <= n; k++ {
		for mask := catalog.TableSet(1); mask <= all; mask++ {
			if mask.Count() != k {
				continue
			}
			if o.opts.PostponeCartesian && fullyConnected && !o.schema.Connected(mask) {
				continue
			}
			masks = append(masks, mask)
		}
	}
	return masks
}

// prune dispatches one candidate plan through the pruning function:
// the historical exact prune, or the ε-approximate prune when
// Options.Epsilon > 0. The presorted reduction of every join mask and
// the base-table loop go through this one method, so the dispatch can
// never diverge between paths.
func (w *worker) prune(cur []*PlanInfo, c candidate) []*PlanInfo {
	if w.o.epsLevel > 0 {
		return w.pruneEps(cur, c)
	}
	return w.pruneExact(cur, c)
}

// newCandidate evaluates cost at the run's screening samples and
// derives the presort key from those values.
func (w *worker) newCandidate(pn *plan.Node, cost Cost) candidate {
	c := candidate{plan: pn, cost: cost}
	if len(w.o.samples) == 0 {
		return c
	}
	c.samples = make([]geometry.Vector, len(w.o.samples))
	for i, x := range w.o.samples {
		c.samples[i] = w.algebra.Eval(cost, x)
		for _, v := range c.samples[i] {
			c.key += math.Log(math.Max(v, math.SmallestNonzeroFloat64))
		}
	}
	return c
}

// presortCmp orders the candidates of a join mask for the prune: by
// presort key, NaN keys last; a stable sort from canonical order keeps
// ties in canonical index order. The key is the sum of log(v) over
// every metric at every screening sample, so a plan that is at most
// another at every sample has at most its key: likely dominators reach
// the prune before the plans they evict, and fewer relevance regions
// are built only to be emptied later (sort-filter-skyline presorting;
// DESIGN.md, "Candidate presort").
func presortCmp(a, b candidate) int {
	an, bn := math.IsNaN(a.key), math.IsNaN(b.key)
	switch {
	case an != bn:
		if an {
			return 1
		}
		return -1
	case an:
		return 0
	}
	return cmp.Compare(a.key, b.key)
}

// pruneExact implements the pruning function of Algorithm 1 (lines
// 33-57) against the worker-local plan set cur: the relevance region
// of the new plan starts as the full parameter space and is reduced by
// the dominance regions of all existing plans; if it empties, the plan
// is discarded. Otherwise the existing plans' relevance regions are
// reduced by the new plan's dominance regions and plans with empty
// regions are dropped; finally the new plan is inserted.
func (w *worker) pruneExact(cur []*PlanInfo, c candidate) []*PlanInfo {
	w.created++
	return w.pruneInsert(cur, c)
}

// pruneInsert is the body of the exact prune, shared verbatim by the
// exact path and the post-gate half of the ε path.
//
// Before building the newcomer's relevance region it tries whole-space
// dominance: every old plan whose cost is at most the newcomer's at
// every screening sample gets its Dom computed first, and a Dom that
// is the parameter space itself drops the newcomer outright. Most
// dropped newcomers are dominated on the whole space by one old plan,
// so this skips the region construction and its emptiness checks. A
// surviving newcomer's cost is finished next (see finisher). When it
// had nothing to finish, the Dom results are reused at their own
// position in the ordered loop, so a surviving newcomer's cutouts —
// and the plan set — are exactly those of the plain loop. The test
// goes through Algebra.Dom and Algebra.Eval only; whole-space
// dominance is a Dom result equal to the space (see pwl.Dom and
// DESIGN.md, "Prune fast path").
func (w *worker) pruneInsert(cur []*PlanInfo, c candidate) []*PlanInfo {
	o := w.o
	space := o.model.Space()
	cost, samples := c.cost, c.samples
	var doms [][]*geometry.Polytope
	var known []bool
	for i, old := range cur {
		if len(samples) == 0 || !atMostAtSamples(old.samples, samples) {
			continue
		}
		if doms == nil {
			doms, known = make([][]*geometry.Polytope, len(cur)), make([]bool, len(cur))
		}
		doms[i], known[i] = w.algebra.Dom(old.Cost, cost), true
		if len(doms[i]) == 1 && doms[i][0] == space {
			w.pruned++
			return cur // dominated on the whole space by one old plan
		}
	}
	// The newcomer survived the screen: finish its cost (PWL
	// compaction) before its relevance region is built, so only
	// survivors pay for it. The screen's Doms were built on the
	// unfinished cost, so they are dropped and recomputed below.
	if f, ok := cost.(finisher); ok && f.Finish(w.solver) {
		known = nil
	}
	rr := region.New(w.solver, space, o.opts.Region)
	for i, old := range cur {
		var dom []*geometry.Polytope
		if known != nil && known[i] {
			dom = doms[i]
		} else {
			dom = w.algebra.Dom(old.Cost, cost)
		}
		rr.Subtract(w.solver, dom...)
		if rr.IsEmpty(w.solver) {
			w.pruned++
			return cur // do not insert the new plan
		}
	}
	// The new plan will be inserted; discard irrelevant old plans.
	kept := cur[:0]
	for _, old := range cur {
		old.RR.Subtract(w.solver, w.algebra.Dom(cost, old.Cost)...)
		if old.RR.IsEmpty(w.solver) {
			w.pruned++
			continue
		}
		kept = append(kept, old)
	}
	return append(kept, &PlanInfo{Plan: c.plan, Cost: cost, RR: rr, samples: samples})
}

// screenSamples returns the whole-space dominance screen's points: a
// 3-per-dimension grid over the bounding box of space, filtered to the
// space. It returns nil (no screening) when the box cannot be computed.
func screenSamples(s *geometry.Solver, space *geometry.Polytope) []geometry.Vector {
	lo, hi, ok := s.BoundingBox(space)
	if !ok {
		return nil
	}
	var pts []geometry.Vector
	for _, p := range geometry.SamplePointsInBox(lo, hi, 3, math.MaxInt32) {
		if space.ContainsPoint(p, geometry.CompareEps) {
			pts = append(pts, p)
		}
	}
	return pts
}

// atMostAtSamples reports whether the cost vectors a are at most b on
// every metric at every sample, up to a relative CompareEps: the cheap
// necessary condition for whole-space dominance.
func atMostAtSamples(a, b []geometry.Vector) bool {
	for i := range a {
		for m, v := range a[i] {
			bound := b[i][m]
			if v > bound+geometry.CompareEps*(1+math.Abs(bound)) {
				return false
			}
		}
	}
	return true
}

// pruneEps is the ε-approximate prune: the exact prune behind an
// ε-admission gate. A newcomer is dropped outright when the union of
// the established plans' relaxed dominance regions ({old <=
// (1+ε_l)·new}, supersets of exact dominance) covers the entire
// parameter space — everywhere, some established plan is within a
// (1+ε_l) factor of dominating it. Newcomers that pass the gate go
// through the unmodified exact prune, so relevance-region geometry is
// exactly the exact algorithm's: the approximation can never open a
// coverage hole the exact path would not have.
//
// The gate-only design is what keeps the slack from compounding.
// Relaxed dominance is not antisymmetric — inside a near-tied cluster
// every plan relaxed-dominates every other, so any scheme that
// SUBTRACTS relaxed regions lets cluster members remove each other's
// regions in a cycle until no plan covers a point. Here relaxed
// dominance only ever blocks insertion: a dropped newcomer's witness
// is a plan that was already inserted, and inserted plans cede region
// exclusively through exact dominance, whose pointwise-non-increasing
// witness chains terminate at a survivor. Every dropped plan is
// therefore covered by a survivor within a single (1+ε_l) factor, and
// the factors compound only across the L lattice levels, which the
// ε_l = (1+ε)^(1/L)−1 allocation accounts for. Candidates for one
// table set arrive in presort order on a single worker regardless of
// the worker count (the determinism contract), so the gate's drops —
// and with them the whole plan set — are bit-for-bit identical for any
// worker count.
func (w *worker) pruneEps(cur []*PlanInfo, c candidate) []*PlanInfo {
	o := w.o
	w.created++
	alg := w.algebra.(EpsilonAlgebra) // validated by OptimizeCtx
	scale := 1 + o.epsLevel
	var relaxed []*geometry.Polytope
	for _, old := range cur {
		relaxed = append(relaxed, alg.DomScaled(old.Cost, c.cost, 1, scale)...)
	}
	if len(relaxed) > 0 && w.solver.UnionCovers(o.model.Space(), relaxed) {
		w.pruned++
		return cur // absorbed: some established plan is ε-close everywhere
	}
	return w.pruneInsert(cur, c)
}

// ParetoFrontAt evaluates the result's plan set at a concrete parameter
// vector and returns the plans whose cost vectors are Pareto-optimal
// within the set, in plan order — the run-time plan-selection step of
// Figure 2.
func (r *Result) ParetoFrontAt(algebra Algebra, x geometry.Vector) []*PlanInfo {
	type entry struct {
		info *PlanInfo
		cost geometry.Vector
	}
	entries := make([]entry, 0, len(r.Plans))
	for _, info := range r.Plans {
		entries = append(entries, entry{info, algebra.Eval(info.Cost, x)})
	}
	var out []*PlanInfo
	for _, e := range geometry.ParetoFront(entries, func(e entry) geometry.Vector { return e.cost }) {
		out = append(out, e.info)
	}
	return out
}
