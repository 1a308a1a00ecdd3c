package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/plan"
)

// SchedulerStats reports the pipeline behavior of the dependency
// scheduler. Unlike the plan and LP counters, these are scheduling
// metrics: DonatedMasks depends on the donor's momentary idle capacity
// and Busy/Wall on wall-clock time, so they are NOT part of the
// determinism contract and may differ between runs and worker counts.
type SchedulerStats struct {
	// DonatedMasks counts whole masks planned by goroutines lent
	// through Options.Donor — mask-level donation raises the effective
	// worker count mid-run. Zero without a donor.
	DonatedMasks int
	// Busy is the summed per-worker time spent planning masks,
	// including donated workers.
	Busy time.Duration
	// Wall is the wall-clock duration of the scheduling phase.
	Wall time.Duration
}

// DonorPool lends idle goroutines to an optimizer run — the
// scheduler-aware serving hook: a serving layer whose request queue is
// empty donates its idle solver-pool workers to an in-flight Prepare,
// where they plan ready masks instead of sleeping. Implementations must
// be safe for concurrent use.
type DonorPool interface {
	// Idle returns a momentary estimate of the goroutines the pool
	// could lend right now. The scheduler uses it to decide how many
	// stints to offer; it may be stale by the time Offer is called.
	Idle() int
	// Offer proposes a transient task. The pool either arranges for
	// task to run promptly on an idle goroutine and returns true, or
	// declines with false (no idle capacity). task returns when the
	// donated work is exhausted; the scheduler waits for every accepted
	// task before its run completes.
	Offer(task func()) bool
}

// Utilization returns the mean fraction of the worker pool kept busy
// while the scheduler ran: Busy / (Wall × workers). 1.0 means perfectly
// pipelined; the wavefront barrier of earlier versions dropped well
// below that on small-wavefront shapes (cliques, star hubs).
func (s SchedulerStats) Utilization(workers int) float64 {
	if s.Wall <= 0 || workers <= 0 {
		return 0
	}
	u := float64(s.Busy) / (float64(s.Wall) * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// splitGroup is one split of a table set: the Pareto sets of the two
// sides and the join alternatives connecting them.
type splitGroup struct {
	p1s, p2s []*PlanInfo
	alts     []Alternative
}

// enumerateSplits lists the split groups of q in the exact order and
// with the exact CostModel call pattern of the sequential algorithm:
// one pass over splits with a connecting join predicate; when it yields
// no candidate, a second pass over all splits (the Cartesian
// postponement fallback of the paper's experiments).
func (o *optimizer) enumerateSplits(q catalog.TableSet) []splitGroup {
	groups, produced := o.collectSplits(q, true)
	if !produced {
		groups, _ = o.collectSplits(q, false)
	}
	return groups
}

func (o *optimizer) collectSplits(q catalog.TableSet, requireEdge bool) ([]splitGroup, bool) {
	var groups []splitGroup
	produced := false
	q.SubsetsProper(func(q1 catalog.TableSet) bool {
		q2 := q.Minus(q1)
		p1s, p2s := o.store.get(q1), o.store.get(q2)
		if len(p1s) == 0 || len(p2s) == 0 {
			return true
		}
		if o.opts.PostponeCartesian && requireEdge && !o.schema.HasEdgeBetween(q1, q2) {
			return true
		}
		alts := o.model.JoinAlternatives(q1, q2)
		if len(alts) == 0 {
			return true
		}
		groups = append(groups, splitGroup{p1s: p1s, p2s: p2s, alts: alts})
		produced = true
		return true
	})
	return groups, produced
}

// planGroups plans one table set on w: it builds every candidate of
// the split groups, presorts them (see presortCmp) and prunes them in
// that order against a single evolving plan set. The build runs in
// canonical order — split order, then first side's plans, second
// side's plans, join alternatives innermost — and the stable presort
// keeps key ties in that order, so the result and every counter are
// byte-identical for every schedule.
func (w *worker) planGroups(groups []splitGroup) []*PlanInfo {
	n := 0
	for _, g := range groups {
		n += len(g.p1s) * len(g.p2s) * len(g.alts)
	}
	cands := make([]candidate, 0, n)
	for _, g := range groups {
		for _, i1 := range g.p1s {
			for _, i2 := range g.p2s {
				for _, alt := range g.alts {
					cands = append(cands, w.newCandidate(plan.Join(alt.Op, i1.Plan, i2.Plan), w.algebra.Accumulate(alt.Cost, i1.Cost, i2.Cost)))
				}
			}
		}
	}
	slices.SortStableFunc(cands, presortCmp)
	var cur []*PlanInfo
	for _, c := range cands {
		cur = w.prune(cur, c)
	}
	return cur
}

// scheduler drives the dependency-pipelined execution of a run's join
// masks: a mask becomes runnable the moment every scheduled strict
// subset has completed (not when its whole cardinality class has),
// workers pull runnable masks from the ready queue, and completed
// Pareto sets are published into the sharded store. See DESIGN.md,
// "Concurrency model".
type scheduler struct {
	o *optimizer

	// Immutable dependency structure over the scheduled masks (k >= 2),
	// in deterministic cardinality-then-value order.
	masks      []catalog.TableSet
	idx        map[catalog.TableSet]int32
	dependents [][]int32

	mu        sync.Mutex
	cond      *sync.Cond
	deps      []int32 // remaining incomplete scheduled subsets per mask
	ready     []int32 // runnable mask indices (FIFO)
	readyHead int
	remaining int // masks not yet completed
	idle      int // workers waiting for a mask

	// aborted flips when the run's context is done: workers stop
	// claiming masks at the next checkpoint (between masks) and unwind.
	// Checkpoints are passive reads, so a run that never observes the
	// flag executes exactly like one without a cancellable context —
	// the byte-identity contract is untouched.
	aborted atomic.Bool

	// Donated helpers (Options.Donor): accepted offers are tracked by
	// donateWG so the run cannot complete (and stats cannot be read)
	// while a donated worker is still mid-mask; finished helpers park
	// their worker state in donated for the stat merge.
	donateWG     sync.WaitGroup
	donatedMu    sync.Mutex
	donated      []*worker
	donatedMasks atomic.Int64
}

// newScheduler builds the dependency graph: deps[i] counts the
// scheduled strict subsets of masks[i] (base tables are complete before
// the scheduler starts and are not counted), dependents[i] lists the
// masks unblocked by masks[i]'s completion.
func newScheduler(o *optimizer, masks []catalog.TableSet) *scheduler {
	s := &scheduler{
		o:          o,
		masks:      masks,
		idx:        make(map[catalog.TableSet]int32, len(masks)),
		deps:       make([]int32, len(masks)),
		dependents: make([][]int32, len(masks)),
		remaining:  len(masks),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, q := range masks {
		s.idx[q] = int32(i)
	}
	for i, q := range masks {
		q.SubsetsProper(func(sub catalog.TableSet) bool {
			if si, ok := s.idx[sub]; ok {
				s.deps[i]++
				s.dependents[si] = append(s.dependents[si], int32(i))
			}
			return true
		})
	}
	for i := range masks {
		if s.deps[i] == 0 {
			s.ready = append(s.ready, int32(i))
		}
	}
	return s
}

// run executes all masks on the optimizer's workers and returns the
// scheduler metrics except Busy, which optimizer.run sums in its
// per-worker merge. workers[0] runs on the caller's goroutine; every
// further worker gets a goroutine of its own.
func (s *scheduler) run() SchedulerStats {
	start := time.Now() //mpq:wallclock SchedulerStats.Wall timing; never reaches plan bytes
	// On cancellation, set the abort flag and wake every worker parked
	// in next()'s cond.Wait so the pool drains promptly instead of on
	// its next natural wakeup.
	stop := context.AfterFunc(s.o.runCtx, s.abort)
	// The initial ready queue (no scheduled dependencies) is the first
	// chance for mask-level donation: lend idle pool goroutines before
	// the resident workers have even started.
	s.tryDonateMasks()
	var wg sync.WaitGroup
	for _, w := range s.o.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.workerLoop(w)
		}()
	}
	s.workerLoop(s.o.workers[0])
	wg.Wait()
	// Accepted donations may still be planning their last mask; every
	// donated worker must retire before stats (and the caller's result)
	// are assembled.
	s.donateWG.Wait()
	stop()
	return SchedulerStats{
		DonatedMasks: int(s.donatedMasks.Load()),
		Wall:         time.Since(start), //mpq:wallclock SchedulerStats.Wall timing; never reaches plan bytes
	}
}

// abort flips the abort flag and wakes every parked worker.
func (s *scheduler) abort() {
	s.aborted.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// incomplete reports whether any scheduled mask has not completed.
func (s *scheduler) incomplete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remaining > 0
}

// workerLoop plans masks until every mask has completed.
func (s *scheduler) workerLoop(w *worker) {
	for {
		mi := s.next(true)
		if mi < 0 {
			return
		}
		start := time.Now() //mpq:wallclock per-worker busy-time stat; never reaches plan bytes
		s.planMask(w, s.masks[mi])
		w.busy += time.Since(start) //mpq:wallclock per-worker busy-time stat; never reaches plan bytes
	}
}

// next claims a ready mask. With wait, next parks until a mask is
// ready and returns -1 only once the run is complete or aborted;
// without wait (a donated stint) it returns -1 as soon as no mask is
// ready.
func (s *scheduler) next(wait bool) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.aborted.Load() {
		if s.readyHead < len(s.ready) {
			mi := s.ready[s.readyHead]
			s.readyHead++
			return mi
		}
		if !wait || s.remaining == 0 {
			break
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
	return -1
}

// planMask plans one mask whole on w and publishes its Pareto set.
func (s *scheduler) planMask(w *worker, q catalog.TableSet) {
	s.complete(q, w.planGroups(s.o.enumerateSplits(q)))
}

// donorIdle estimates the goroutines Options.Donor could lend right
// now (0 without a usable donor).
func (s *scheduler) donorIdle() int {
	if s.o.opts.Donor == nil || s.o.forkable == nil {
		return 0
	}
	n := s.o.opts.Donor.Idle()
	if n < 0 {
		return 0
	}
	return n
}

// tryDonateMasks offers whole-mask help to the donor pool: up to one
// transient worker per ready mask beyond what the resident pool can
// absorb, each claiming ready masks until none is immediately
// runnable, then retiring back to the pool. A mask is a self-contained
// unit — it reads only completed subset sets and publishes through
// complete() — so mask-level donation is exactly a mid-run raise of
// the effective worker count: results and plan/LP counters are
// identical for every donation schedule, only wall-clock time changes
// (the byte-identity contract of DESIGN.md, "Concurrency model",
// covers any worker count).
func (s *scheduler) tryDonateMasks() {
	want := s.donorIdle()
	if want == 0 {
		return
	}
	s.mu.Lock()
	// Parked resident workers will absorb part of the queue the moment
	// they wake; only lend for the excess.
	want = min(want, len(s.ready)-s.readyHead-s.idle)
	s.mu.Unlock()
	for range want {
		if !s.offer() {
			return
		}
	}
}

// offer proposes one donated stint to Options.Donor: on acceptance, a
// transient worker on its own solver and algebra fork runs
// runReadyTasks, then parks its state in donated for the stat merge.
// It reports whether the donor accepted. Callers offer only when
// donorIdle is positive, which implies a donor and a forkable algebra.
func (s *scheduler) offer() bool {
	s.donateWG.Add(1)
	accepted := s.o.opts.Donor.Offer(func() {
		defer s.donateWG.Done()
		solver := s.o.ctx.Fork()
		w := &worker{o: s.o, solver: solver, algebra: s.o.forkable.Fork(solver)}
		start := time.Now() //mpq:wallclock donated-worker busy-time stat; never reaches plan bytes
		s.runReadyTasks(w)
		w.busy = time.Since(start) //mpq:wallclock donated-worker busy-time stat; never reaches plan bytes
		s.donatedMu.Lock()
		s.donated = append(s.donated, w)
		s.donatedMu.Unlock()
	})
	if !accepted {
		s.donateWG.Done()
	}
	return accepted
}

// runReadyTasks is a donated worker's stint: plan ready masks without
// ever parking — donated goroutines belong to the serving pool and
// must return the moment no mask is ready.
func (s *scheduler) runReadyTasks(w *worker) {
	for {
		mi := s.next(false)
		if mi < 0 {
			return
		}
		s.donatedMasks.Add(1)
		s.planMask(w, s.masks[mi])
	}
}

// complete publishes a mask's Pareto set into the sharded store and
// unblocks every dependent whose last dependency this was.
func (s *scheduler) complete(q catalog.TableSet, infos []*PlanInfo) {
	s.o.store.complete(q, infos)
	if s.o.noteSetSize(len(infos)) {
		// Plan-set budget tripped: stop handing out work. The
		// bookkeeping below still runs so dependents don't deadlock on
		// this mask, and the broadcast wakes parked workers to observe
		// the abort.
		s.aborted.Store(true)
	}
	s.mu.Lock()
	s.remaining--
	readied := 0
	if i, ok := s.idx[q]; ok {
		for _, di := range s.dependents[i] {
			s.deps[di]--
			if s.deps[di] == 0 {
				s.ready = append(s.ready, di)
				readied++
			}
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if readied > 0 {
		// Freshly runnable masks are another donation opportunity: lend
		// idle pool goroutines for whatever the resident workers cannot
		// absorb right now.
		s.tryDonateMasks()
	}
}
