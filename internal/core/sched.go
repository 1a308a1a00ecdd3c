package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/plan"
	"mpq/internal/pwl"
)

// defaultSplitWork is the estimated accumulation work at which a mask
// becomes "wide" enough for intra-mask split parallelism when Options
// leaves the threshold at zero. Work is measured in piece-pair units
// (see splitWorkEstimate): a candidate's accumulation cost is driven by
// the product of its sides' per-metric piece counts, so a mask with
// many single-piece candidates (cheap, fast to accumulate) no longer
// splits as eagerly as one whose candidates carry rich PWL costs.
// Below the threshold, the fixed cost of publishing a split job
// exceeds the accumulation work it parallelizes.
const defaultSplitWork = 512

// SchedulerStats reports the pipeline behavior of the dependency
// scheduler. Unlike the plan and LP counters, these are scheduling
// metrics: Tasks and SplitJobs depend on runtime idleness heuristics and
// Busy/Wall on wall-clock time, so they are NOT part of the determinism
// contract and may differ between runs and worker counts.
type SchedulerStats struct {
	// Tasks counts executed scheduler tasks: mask plans, split chunks,
	// and split reductions.
	Tasks int
	// SplitJobs counts masks planned with intra-mask split parallelism.
	SplitJobs int
	// SplitChunks counts parallel accumulation chunks executed across
	// all split jobs.
	SplitChunks int
	// DonatedTasks counts work stints executed by goroutines lent
	// through Options.Donor (each stint claims split chunks or whole
	// ready masks until none are immediately runnable). Zero without a
	// donor.
	DonatedTasks int
	// DonatedMasks counts whole masks planned by donated workers —
	// mask-level donation raises the effective worker count mid-run, so
	// narrow queries without split jobs parallelize too. Zero without a
	// donor.
	DonatedMasks int
	// Busy is the summed per-worker time spent inside tasks, including
	// donated workers.
	Busy time.Duration
	// Wall is the wall-clock duration of the scheduling phase.
	Wall time.Duration
}

// DonorPool lends idle goroutines to an optimizer run — the
// scheduler-aware serving hook: a serving layer whose request queue is
// empty donates its idle solver-pool workers to an in-flight Prepare's
// split jobs instead of letting them sleep. Implementations must be
// safe for concurrent use.
type DonorPool interface {
	// Idle returns a momentary estimate of the goroutines the pool
	// could lend right now. The scheduler uses it to decide whether
	// splitting a mask is worthwhile; it may be stale by the time
	// Offer is called.
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
// sides and the join alternatives connecting them. Candidate plans of a
// group are numbered like the historical triple loop — first side's
// plans outermost, join alternatives innermost (splitJob.candidate).
type splitGroup struct {
	p1s, p2s []*PlanInfo
	alts     []Alternative
}

func (g *splitGroup) candidates() int { return len(g.p1s) * len(g.p2s) * len(g.alts) }

// workEstimate approximates the group's accumulation cost in piece-pair
// units: accumulating one candidate intersects its sides' piece
// partitions per metric, so the cost of the whole group is the summed
// per-metric product of the sides' total piece counts, times the join
// alternatives. Non-PWL costs count one piece per metric, so the
// estimate is always at least the candidate count.
func (g *splitGroup) workEstimate() int {
	metrics := 0
	for _, p := range g.p1s {
		if m, ok := p.Cost.(*pwl.Multi); ok {
			metrics = m.NumMetrics()
		}
		break
	}
	if metrics == 0 {
		return g.candidates()
	}
	work := 0
	for m := 0; m < metrics; m++ {
		s1, ok1 := sidePieces(g.p1s, m)
		s2, ok2 := sidePieces(g.p2s, m)
		if !ok1 || !ok2 {
			return g.candidates()
		}
		work += s1 * s2
	}
	return len(g.alts) * work
}

// sidePieces sums the piece counts of metric m over one side's plans;
// ok is false when a cost is not PWL.
func sidePieces(plans []*PlanInfo, m int) (int, bool) {
	total := 0
	for _, p := range plans {
		multi, ok := p.Cost.(*pwl.Multi)
		if !ok {
			return 0, false
		}
		total += multi.Component(m).NumPieces()
	}
	return total, true
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

// planGroups plans one table set on w alone: it accumulates every
// candidate of the split groups, then runs the same presorted reduction
// as a split job, so both paths prune in one order.
func (w *worker) planGroups(groups []splitGroup) []*PlanInfo {
	j := newSplitJob(0, groups, 1)
	j.accumulate(w, 0, len(j.cands))
	return j.reduce(w)
}

// splitJob is the candidate sequence of one table set. Phase A
// accumulates each candidate's cost and evaluates it at the run's
// screening samples (candidate accumulation is self-contained — it
// reads only immutable subset costs — so the chunk partition cannot
// change any result or counter; memoized geometry is computed and
// counted exactly once per polytope in every schedule). For a wide mask
// workers claim chunks of phase A in parallel; otherwise planGroups
// runs it as one range. Phase B, run once by whichever worker finishes
// the last chunk, presorts the candidates and prunes them in that order
// against a single evolving candidate set — the order-preserving
// reduction that makes the result byte-identical for every schedule.
type splitJob struct {
	q       catalog.TableSet
	groups  []splitGroup
	offsets []int       // offsets[i] = first candidate index of groups[i]
	cands   []candidate // per-candidate plans, costs and keys (phase A output)
	chunk   int         // candidates per chunk
	chunks  int
	next    atomic.Int64 // next unclaimed chunk
	left    atomic.Int64 // chunks not yet finished
}

func newSplitJob(q catalog.TableSet, groups []splitGroup, workers int) *splitJob {
	j := &splitJob{
		q:       q,
		groups:  groups,
		offsets: make([]int, len(groups)+1),
	}
	for i := range groups {
		j.offsets[i+1] = j.offsets[i] + groups[i].candidates()
	}
	total := j.offsets[len(groups)]
	j.cands = make([]candidate, total)
	// Aim for a few chunks per worker so late joiners still find work,
	// without shrinking chunks into scheduling overhead.
	j.chunk = total / (4 * workers)
	if j.chunk < 4 {
		j.chunk = 4
	}
	j.chunks = (total + j.chunk - 1) / j.chunk
	j.left.Store(int64(j.chunks))
	return j
}

func (j *splitJob) exhausted() bool { return j.next.Load() >= int64(j.chunks) }

// candidate returns the decoded candidate at canonical index idx of
// group gi: its sub-plans and the join alternative, in the historical
// triple-loop order (split order, then first side's plans outermost,
// second side's plans, join alternatives innermost). The canonical
// index breaks presort-key ties.
func (j *splitJob) candidate(gi, idx int) (i1, i2 *PlanInfo, alt Alternative) {
	g := &j.groups[gi]
	r := idx - j.offsets[gi]
	na, n2 := len(g.alts), len(g.p2s)
	ai := r % na
	r /= na
	b := r % n2
	a := r / n2
	return g.p1s[a], g.p2s[b], g.alts[ai]
}

// runChunk runs phase A for chunk c on worker w.
func (j *splitJob) runChunk(w *worker, c int) {
	lo := c * j.chunk
	j.accumulate(w, lo, min(lo+j.chunk, len(j.cands)))
}

// accumulate builds the candidates with canonical indices [lo, hi).
func (j *splitJob) accumulate(w *worker, lo, hi int) {
	gi := 0
	for idx := lo; idx < hi; idx++ {
		for j.offsets[gi+1] <= idx {
			gi++
		}
		i1, i2, alt := j.candidate(gi, idx)
		j.cands[idx] = w.newCandidate(plan.Join(alt.Op, i1.Plan, i2.Plan), w.algebra.Accumulate(alt.Cost, i1.Cost, i2.Cost))
	}
}

// reduce is phase B: it presorts the candidates (see presortCmp) and
// prunes them in that order. It runs exactly once, after the last chunk
// completes.
func (j *splitJob) reduce(w *worker) []*PlanInfo {
	slices.SortStableFunc(j.cands, presortCmp)
	var cur []*PlanInfo
	for _, c := range j.cands {
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
	jobs      []*splitJob // split jobs with unclaimed chunks (LIFO)
	remaining int         // masks not yet completed
	idle      int         // workers waiting for a task

	tasks       atomic.Int64
	splitJobs   atomic.Int64
	splitChunks atomic.Int64

	// aborted flips when the run's context is done: workers stop
	// claiming tasks at the next checkpoint (between masks and between
	// split chunks) and unwind. Checkpoints are passive reads, so a run
	// that never observes the flag executes exactly like one without a
	// cancellable context — the byte-identity contract is untouched.
	aborted atomic.Bool

	// Donated helpers (Options.Donor): accepted offers are tracked by
	// donateWG so the run cannot complete (and stats cannot be read)
	// while a donated worker is still mid-chunk or mid-mask; finished
	// helpers park their worker state in donated for the stat merge.
	donateWG     sync.WaitGroup
	donatedMu    sync.Mutex
	donated      []*worker
	donatedTasks atomic.Int64
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
	// Accepted donations may still be draining their final chunks;
	// every donated worker must retire before stats (and the caller's
	// result) are assembled.
	s.donateWG.Wait()
	stop()
	return SchedulerStats{
		Tasks:        int(s.tasks.Load()),
		SplitJobs:    int(s.splitJobs.Load()),
		SplitChunks:  int(s.splitChunks.Load()),
		DonatedTasks: int(s.donatedTasks.Load()),
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

// workerLoop pulls tasks until every mask has completed.
func (s *scheduler) workerLoop(w *worker) {
	for {
		j, mi := s.next(true)
		if j == nil && mi < 0 {
			return
		}
		start := time.Now() //mpq:wallclock per-worker busy-time stat; never reaches plan bytes
		if j != nil {
			s.runJobChunks(w, j)
		} else {
			s.planMask(w, s.masks[mi])
		}
		w.busy += time.Since(start) //mpq:wallclock per-worker busy-time stat; never reaches plan bytes
	}
}

// next claims a task. Split chunks are preferred over fresh masks: they
// finish work already in flight, unblocking dependents sooner. With
// wait, next parks until a task is available and returns (nil, -1) only
// once the run is complete or aborted; without wait (a donated stint)
// it returns (nil, -1) as soon as no task is immediately runnable.
func (s *scheduler) next(wait bool) (*splitJob, int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.aborted.Load() {
		for len(s.jobs) > 0 {
			j := s.jobs[len(s.jobs)-1]
			if j.exhausted() {
				s.jobs = s.jobs[:len(s.jobs)-1]
				continue
			}
			return j, -1
		}
		if s.readyHead < len(s.ready) {
			mi := s.ready[s.readyHead]
			s.readyHead++
			return nil, mi
		}
		if !wait || s.remaining == 0 {
			break
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
	return nil, -1
}

// planMask plans one mask. Wide masks with idle workers available are
// split into a parallel accumulation job; everything else runs the
// sequential per-mask path. Both paths produce identical plan sets and
// counters, so the activation heuristic only affects wall-clock time.
// Activation is cost-aware: the mask's estimated accumulation work
// (candidates weighted by a piece-pair estimate, see workEstimate) is
// compared against the threshold, so a wide mask of cheap single-piece
// candidates no longer splits eagerly while a narrower mask of
// piece-rich costs still does.
func (s *scheduler) planMask(w *worker, q catalog.TableSet) {
	s.tasks.Add(1)
	groups := s.o.enumerateSplits(q)
	work := 0
	for i := range groups {
		work += groups[i].workEstimate()
	}
	threshold := s.o.opts.SplitCandidates
	force := threshold > 0
	if threshold <= 0 {
		threshold = defaultSplitWork
	}
	donorIdle := s.donorIdle()
	if work >= threshold && (force || s.idleWorkers() > 0 || donorIdle > 0) {
		// Chunk for the parallelism actually in reach: the pool plus
		// whatever the donor estimates it could lend (chunking only
		// shapes scheduling; results are identical for any chunking).
		j := newSplitJob(q, groups, len(s.o.workers)+donorIdle)
		s.splitJobs.Add(1)
		s.publishJob(j)
		s.tryDonate(j, donorIdle)
		s.runJobChunks(w, j)
		return
	}
	s.complete(q, w.planGroups(groups))
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

// tryDonate offers split-job help to the donor pool: up to want
// transient workers, each claiming chunks of j until none remain. want
// comes from donorIdle, so it is zero without a donor and a forkable
// algebra. Each donated worker runs on its own solver and algebra fork,
// so donation cannot change results or aggregate counters — only
// wall-clock time.
func (s *scheduler) tryDonate(j *splitJob, want int) {
	// The publishing worker processes chunks too; more helpers than
	// remaining chunks would go straight back idle.
	for range min(want, j.chunks-1) {
		if !s.offer(func(w *worker) { s.runJobChunks(w, j) }) {
			return
		}
	}
}

// tryDonateMasks offers whole-mask help to the donor pool: up to one
// transient worker per runnable mask beyond what the resident pool can
// absorb, each claiming ready masks (and split chunks) until none are
// immediately runnable, then retiring back to the pool. A mask is a
// self-contained unit — it reads only completed subset sets and
// publishes through complete() — so mask-level donation is exactly a
// mid-run raise of the effective worker count: results and plan/LP
// counters are identical for every donation schedule, only wall-clock
// time changes (the byte-identity contract of DESIGN.md, "Concurrency
// model", covers any worker count).
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
		if !s.offer(s.runReadyTasks) {
			return
		}
	}
}

// offer proposes one donated stint to Options.Donor: on acceptance, a
// transient worker on its own solver and algebra fork runs stint, then
// parks its state in donated for the stat merge. It reports whether the
// donor accepted. Callers offer only when donorIdle is positive, which
// implies a donor and a forkable algebra.
func (s *scheduler) offer(stint func(w *worker)) bool {
	s.donateWG.Add(1)
	accepted := s.o.opts.Donor.Offer(func() {
		defer s.donateWG.Done()
		solver := s.o.ctx.Fork()
		w := &worker{o: s.o, solver: solver, algebra: s.o.forkable.Fork(solver)}
		start := time.Now() //mpq:wallclock donated-worker busy-time stat; never reaches plan bytes
		stint(w)
		w.busy = time.Since(start) //mpq:wallclock donated-worker busy-time stat; never reaches plan bytes
		s.donatedTasks.Add(1)
		s.donatedMu.Lock()
		s.donated = append(s.donated, w)
		s.donatedMu.Unlock()
	})
	if !accepted {
		s.donateWG.Done()
	}
	return accepted
}

// runReadyTasks is a donated worker's stint: claim split chunks and
// ready masks without ever parking — donated goroutines belong to the
// serving pool and must return the moment nothing is immediately
// runnable.
func (s *scheduler) runReadyTasks(w *worker) {
	for {
		j, mi := s.next(false)
		if j == nil && mi < 0 {
			return
		}
		if j != nil {
			s.runJobChunks(w, j)
		} else {
			s.donatedMasks.Add(1)
			s.planMask(w, s.masks[mi])
		}
	}
}

// runJobChunks claims and processes chunks of j until none remain. The
// worker finishing the last chunk runs the order-preserving reduction
// and completes the mask.
func (s *scheduler) runJobChunks(w *worker, j *splitJob) {
	for {
		if s.aborted.Load() {
			return
		}
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		s.tasks.Add(1)
		s.splitChunks.Add(1)
		j.runChunk(w, c)
		if j.left.Add(-1) == 0 {
			s.tasks.Add(1)
			s.complete(j.q, j.reduce(w))
		}
	}
}

func (s *scheduler) publishJob(j *splitJob) {
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) idleWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idle
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
