// Package refine implements the generation-refinement subsystem
// between the optimizer and the serving layer: the machinery that turns
// a deadline-budgeted Prepare from "eat the full optimization" into
// "serve a coarse ε-generation now, refine in the background".
//
// A Ladder is a descending sequence of approximation factors (e.g.
// 0.5 → 0.1 → 0). The serving layer answers a deadline-bounded Prepare
// with the coarsest generation, then schedules the remaining steps on a
// Refiner: a background executor with a server-lifecycle context whose
// jobs recompute the template at each finer ε and atomically swap the
// result into the serve cache and shared store. Every generation is a
// full, regret-certified plan set (PR 8's ε contract: every dropped
// plan is within (1+ε) of a kept one everywhere), so a pick served
// mid-refinement is coarse but never wrong.
//
// The Refiner executes jobs serially on one goroutine — background
// refinement load is bounded by construction — while the optimization
// inside each job parallelizes elastically through core.DonorPool
// donation (idle serving workers join mid-run, see internal/core).
// Shutdown is part of the failure-domain contract: cancelling the
// lifecycle context aborts the in-flight job at the optimizer's
// passive checkpoints and drains the queue, and Close does not return
// until the subsystem is quiescent.
package refine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Ladder is a strictly descending sequence of approximation factors,
// each in [0, 1). The first entry is the coarsest generation a
// deadline-bounded Prepare may serve; a template's effective ladder
// always ends at its own resolved ε (see For).
type Ladder []float64

// ParseLadder parses a comma-separated factor list ("0.5,0.1,0") and
// validates it.
func ParseLadder(s string) (Ladder, error) {
	var l Ladder
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("refine: ladder step %q: %w", part, err)
		}
		l = append(l, v)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// Validate checks the ladder invariants: non-empty, every factor in
// [0, 1), strictly descending (coarse to fine).
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return errors.New("refine: empty ladder")
	}
	for i, v := range l {
		if v < 0 || v >= 1 {
			return fmt.Errorf("refine: ladder step %g out of range [0, 1)", v)
		}
		if i > 0 && v >= l[i-1] {
			return fmt.Errorf("refine: ladder not strictly descending at step %g", v)
		}
	}
	return nil
}

// String renders the ladder in ParseLadder's format.
func (l Ladder) String() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// For returns the template-effective ladder for a resolved
// approximation factor: the configured steps strictly coarser than
// final, then final itself as the last generation. A single-step result
// means no coarse generation exists and anytime behavior degenerates to
// the exact path.
func (l Ladder) For(final float64) Ladder {
	out := make(Ladder, 0, len(l)+1)
	for _, v := range l {
		if v > final {
			out = append(out, v)
		}
	}
	return append(out, final)
}

// Index returns the position of eps in the ladder (0 = coarsest), or
// -1 when eps is not one of its steps.
func (l Ladder) Index(eps float64) int {
	for i, v := range l {
		if v == eps {
			return i
		}
	}
	return -1
}

// Jobs returns the refinement jobs that upgrade key from the resident
// generation at eps down to the ladder's final step, in execution
// order. l must be a template-effective ladder (see For); Gen indexes
// into it.
func (l Ladder) Jobs(key string, eps float64) []Job {
	var jobs []Job
	for i, v := range l {
		if v < eps {
			jobs = append(jobs, Job{Key: key, Epsilon: v, Gen: i, Final: i == len(l)-1})
		}
	}
	return jobs
}

// Job is one background refinement step: compute generation Gen of the
// plan set under Key at approximation factor Epsilon and swap it in.
type Job struct {
	Key     string
	Epsilon float64
	Gen     int  // index into the template-effective ladder (0 = coarsest)
	Final   bool // last ladder step: the template's resolved ε
}

// ErrObsolete is the Runner's skip sentinel: the generation this job
// would compute is already superseded by an equal-or-finer resident
// one (a peer refined first, or a straggling schedule). The job counts
// as Skipped and the chain continues.
var ErrObsolete = errors.New("refine: generation already superseded")

// Runner executes one refinement job. It runs on the Refiner's
// goroutine under the lifecycle context — a cancelled ctx must abort
// promptly (the optimizer's passive checkpoints give that for free).
type Runner func(ctx context.Context, job Job) error

// Stats is a snapshot of the refiner's counters. Pending and Running
// are gauges; the rest are monotonic.
type Stats struct {
	// Scheduled counts ladder steps enqueued for background refinement.
	Scheduled int64
	// Completed counts jobs whose generation was computed and swapped.
	Completed int64
	// Cancelled counts jobs aborted by shutdown or context
	// cancellation, including queued jobs dropped when their chain's
	// predecessor failed or the refiner closed.
	Cancelled int64
	// Failed counts jobs whose Runner returned a non-context error.
	Failed int64
	// Skipped counts jobs obsoleted by an already-finer resident
	// generation (ErrObsolete).
	Skipped int64
	// Pending is the number of queued jobs (gauge).
	Pending int64
	// Running is 1 while a job executes (gauge).
	Running int64
}

// Refiner executes refinement jobs serially in the background, FIFO
// across templates so no template's deep ladder starves another's
// first upgrade. All methods are safe for concurrent use.
type Refiner struct {
	runner Runner
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Job
	keys   map[string]int // queued jobs per key, for dedupe and chain drops
	stats  Stats
	closed bool

	wg sync.WaitGroup
}

// New starts a refiner whose jobs run under ctx — the server lifecycle
// context, never context.Background(): cancelling it (or calling
// Close) aborts the in-flight job and drains the queue.
func New(ctx context.Context, runner Runner) *Refiner {
	rctx, cancel := context.WithCancel(ctx)
	r := &Refiner{runner: runner, ctx: rctx, cancel: cancel, keys: make(map[string]int)}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(2)
	go r.watch()
	go r.loop()
	return r
}

// watch turns lifecycle-context cancellation into a queue shutdown.
func (r *Refiner) watch() {
	defer r.wg.Done()
	<-r.ctx.Done()
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Schedule enqueues a key's refinement chain. A key with jobs already
// queued is not re-enqueued (the pending chain subsumes the request);
// the return value reports whether the jobs were accepted.
func (r *Refiner) Schedule(jobs []Job) bool {
	if len(jobs) == 0 {
		return false
	}
	key := jobs[0].Key
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.keys[key] > 0 {
		return false
	}
	r.queue = append(r.queue, jobs...)
	r.keys[key] = len(jobs)
	r.stats.Scheduled += int64(len(jobs))
	r.cond.Broadcast()
	return true
}

// loop is the background executor: one job at a time, FIFO.
func (r *Refiner) loop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for !r.closed && len(r.queue) == 0 {
			r.cond.Wait()
		}
		if r.closed {
			r.stats.Cancelled += int64(len(r.queue))
			r.queue = nil
			clear(r.keys)
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		job := r.queue[0]
		r.queue = append(r.queue[:0:0], r.queue[1:]...)
		r.keys[job.Key]--
		r.stats.Running = 1
		r.mu.Unlock()

		err := r.runner(r.ctx, job)

		r.mu.Lock()
		r.stats.Running = 0
		switch {
		case err == nil:
			r.stats.Completed++
		case errors.Is(err, ErrObsolete):
			r.stats.Skipped++
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			r.stats.Cancelled++
			r.dropChainLocked(job.Key)
		default:
			r.stats.Failed++
			// The chain's later steps would hit the same failure (or
			// compute a generation whose predecessor never landed);
			// drop them — a fresh Prepare reschedules.
			r.dropChainLocked(job.Key)
		}
		if r.keys[job.Key] == 0 {
			delete(r.keys, job.Key)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// dropChainLocked removes the queued remainder of key's chain,
// counting each dropped job as cancelled.
func (r *Refiner) dropChainLocked(key string) {
	if r.keys[key] == 0 {
		return
	}
	kept := r.queue[:0]
	for _, j := range r.queue {
		if j.Key == key {
			r.stats.Cancelled++
			continue
		}
		kept = append(kept, j)
	}
	r.queue = kept
	r.keys[key] = 0
}

// Wait blocks until the refiner is quiescent — no queued or running
// job — or ctx is done. Closing (or cancelling the lifecycle context)
// quiesces the refiner, but not instantaneously: the in-flight job
// still has to abort at a checkpoint and the queue still has to drain
// as cancelled, so Wait keeps blocking until the executor has actually
// retired the work rather than fast-pathing on the closed flag — the
// flag flips the moment the lifecycle context is cancelled, while the
// ledger settles only when the executor observes it.
func (r *Refiner) Wait(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		case <-stop:
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.queue) == 0 && r.stats.Running == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.cond.Wait()
	}
}

// Stats returns a snapshot of the counters.
func (r *Refiner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Pending = int64(len(r.queue))
	return st
}

// Close cancels the lifecycle context, aborts the in-flight job, drains
// the queue (queued jobs count as cancelled) and waits until both
// internal goroutines have retired. Safe to call more than once.
func (r *Refiner) Close() {
	r.cancel()
	r.wg.Wait()
}
