package fleet

import (
	"context"
	"sync"
	"time"
)

// AdmissionStats reports the admission controller's behavior.
type AdmissionStats struct {
	// Admitted counts acquisitions that got a slot; Waited the subset
	// that had to queue first.
	Admitted int64
	Waited   int64
	// Cancelled counts acquisitions that gave up (context done) while
	// still queued — they never held a slot and never owe a release.
	Cancelled int64
	// WaitTime sums the queueing time of all Waited acquisitions.
	WaitTime time.Duration
	// Running and Queued describe the current moment.
	Running int
	Queued  int
	// MaxQueued is the high-water mark of the wait queue.
	MaxQueued int
	// Cap echoes the configured concurrency cap (0 = unlimited).
	Cap int
}

// Admission is the per-template admission controller of the serving
// layer: a global cap on concurrently *running* Prepares with a strict
// FIFO wait queue. Requests for one template key already collapse onto
// a single computation through the serving layer's singleflight — that
// is the per-key queue — so Admission only has to keep distinct
// expensive templates from occupying every solver-pool worker at once:
// with Cap < pool size, Picks always find a free worker no matter how
// many Prepares are queued.
type Admission struct {
	cap int

	mu      sync.Mutex
	running int
	waiters []chan struct{} // FIFO; head is the next to admit
	stats   AdmissionStats
}

// NewAdmission returns a controller admitting at most cap concurrent
// holders (cap <= 0 = unlimited, counting only).
func NewAdmission(cap int) *Admission {
	if cap < 0 {
		cap = 0
	}
	return &Admission{cap: cap}
}

// Acquire blocks until a slot is free (FIFO among waiters) or ctx is
// done. On success it returns the release function, which must be
// called exactly once; on cancellation it returns (nil, ctx.Err()) and
// the caller owes nothing — a queued waiter that gives up removes
// itself from the FIFO without consuming a slot, and if its slot
// transfer races the cancellation, the slot is handed straight onward
// so the running counter never leaks.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		a.mu.Lock()
		a.stats.Cancelled++
		a.mu.Unlock()
		return nil, err
	}
	a.mu.Lock()
	a.stats.Admitted++
	if a.cap <= 0 || a.running < a.cap {
		a.running++
		a.mu.Unlock()
		return a.releaseOnce(), nil
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.stats.Waited++
	if len(a.waiters) > a.stats.MaxQueued {
		a.stats.MaxQueued = len(a.waiters)
	}
	a.mu.Unlock()

	start := time.Now() //mpq:wallclock queue-wait stat (Stats.WaitTime); never reaches plan bytes
	select {
	case <-ch: // the releasing holder transferred its slot to us
		a.mu.Lock()
		a.stats.WaitTime += time.Since(start) //mpq:wallclock queue-wait stat; never reaches plan bytes
		a.mu.Unlock()
		return a.releaseOnce(), nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				// Still queued: unqueue ourselves; no slot was consumed.
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.stats.Admitted-- // never admitted after all
				a.stats.Cancelled++
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		// Not in the queue, so a release already closed our channel: we
		// hold a slot we no longer want. Hand it onward immediately; the
		// acquisition still ends cancelled, not admitted.
		a.stats.Admitted--
		a.stats.Cancelled++
		a.mu.Unlock()
		a.releaseOnce()()
		return nil, ctx.Err()
	}
}

// releaseOnce returns a release function that hands the slot to the
// oldest waiter (keeping running constant) or frees it.
func (a *Admission) releaseOnce() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			if len(a.waiters) > 0 {
				ch := a.waiters[0]
				a.waiters = a.waiters[1:]
				close(ch)
			} else {
				a.running--
			}
			a.mu.Unlock()
		})
	}
}

// Stats returns a snapshot of the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.Running = a.running
	st.Queued = len(a.waiters)
	st.Cap = a.cap
	return st
}
