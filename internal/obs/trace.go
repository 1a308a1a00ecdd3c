package obs

import (
	"sync"
	"time"
)

// Prepare phase tracing: the serving layer starts a PrepareTrace per
// load-or-optimize flight, marks phase boundaries as it moves through
// the pipeline (admission wait, queue wait, source lookup, optimize,
// index build, save), and finishes it into a bounded in-memory ring of
// recent events. The ring is the /debug/traces JSON dump; with
// Instrument, every finished phase is also observed into per-phase
// latency histograms on a Registry, so /metrics carries the
// distributions while the ring carries the last N concrete requests.

// PhaseSpan is one timed phase of a traced request.
type PhaseSpan struct {
	Name string `json:"name"`
	// Duration is the phase's monotonic duration in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
}

// TraceEvent is one finished traced request.
type TraceEvent struct {
	// Op names the traced operation ("prepare").
	Op string `json:"op"`
	// Key is the plan-set key the request resolved to.
	Key string `json:"key"`
	// Source reports where the document came from: "computed", "disk",
	// "shared", "peer" — or "error" when the flight failed.
	Source string `json:"source"`
	// Error carries the failure message of an "error" event.
	Error string `json:"error,omitempty"`
	// Epsilon is the approximation factor of the plan set the request
	// served or produced.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Start is the wall-clock start of the request (for the dump; the
	// durations are what the histograms aggregate).
	Start time.Time `json:"start"`
	// Total is the request's end-to-end monotonic duration.
	Total time.Duration `json:"total_ns"`
	// Phases are the request's timed phases, in execution order.
	Phases []PhaseSpan `json:"phases"`
}

// TraceRing is a bounded ring of recent trace events. A nil *TraceRing
// is a valid no-op: Start returns a nil trace whose methods do
// nothing, so instrumented code needs no nil checks of its own.
type TraceRing struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	total int64

	reg       *Registry
	phaseHist func(phase string) *Histogram
	totalHist *Histogram
}

// NewTraceRing returns a ring keeping the last capacity events
// (capacity <= 0 returns nil, the disabled ring).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		return nil
	}
	return &TraceRing{buf: make([]TraceEvent, 0, capacity)}
}

// Instrument additionally observes every finished event into latency
// histograms on reg: mpq_prepare_phase_seconds{phase=...} per phase and
// mpq_prepare_seconds for the end-to-end duration.
func (r *TraceRing) Instrument(reg *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	r.totalHist = reg.Histogram("mpq_prepare_seconds",
		"End-to-end duration of Prepare flights that reached the load-or-optimize pipeline.",
		DurationBuckets())
	r.phaseHist = func(phase string) *Histogram {
		return reg.Histogram("mpq_prepare_phase_seconds",
			"Duration of one phase of a Prepare flight.",
			DurationBuckets(), Label{Name: "phase", Value: phase})
	}
}

// add appends a finished event, evicting the oldest beyond capacity.
func (r *TraceRing) add(ev TraceEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	totalHist, phaseHist := r.totalHist, r.phaseHist
	r.mu.Unlock()
	if totalHist != nil {
		totalHist.Observe(ev.Total.Seconds())
	}
	if phaseHist != nil {
		for _, p := range ev.Phases {
			phaseHist(p.Name).Observe(p.Duration.Seconds())
		}
	}
}

// Events returns the ring's events, oldest first.
func (r *TraceRing) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Total returns how many events were ever added (including evicted
// ones).
func (r *TraceRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Start opens a trace for one request. On a nil ring it returns nil,
// and every PrepareTrace method tolerates a nil receiver — tracing
// costs one branch when disabled.
func (r *TraceRing) Start(op, key string) *PrepareTrace {
	if r == nil {
		return nil
	}
	now := Now()
	return &PrepareTrace{ring: r, last: now, ev: TraceEvent{Op: op, Key: key, Start: now, Source: "computed"}}
}

// PrepareTrace accumulates one request's phase spans between Start and
// Finish. It is used from a single goroutine at a time (the request's
// own), so it needs no locking.
type PrepareTrace struct {
	ring *TraceRing
	last time.Time
	ev   TraceEvent
}

// Phase closes the span that began at the previous mark (or at Start)
// and names it.
func (t *PrepareTrace) Phase(name string) {
	if t == nil {
		return
	}
	now := Now()
	t.ev.Phases = append(t.ev.Phases, PhaseSpan{Name: name, Duration: now.Sub(t.last)})
	t.last = now
}

// SetSource records where the request's document came from.
func (t *PrepareTrace) SetSource(src string) {
	if t == nil {
		return
	}
	t.ev.Source = src
}

// SetEpsilon records the approximation factor of the plan set the
// request served or produced.
func (t *PrepareTrace) SetEpsilon(epsilon float64) {
	if t == nil {
		return
	}
	t.ev.Epsilon = epsilon
}

// Finish seals the event and publishes it to the ring. A non-nil err
// overrides the source with "error".
func (t *PrepareTrace) Finish(err error) {
	if t == nil {
		return
	}
	t.ev.Total = Since(t.ev.Start)
	if err != nil {
		t.ev.Source = "error"
		t.ev.Error = err.Error()
	}
	t.ring.add(t.ev)
}
