package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"mpq/internal/obs"
)

// Observability wiring for mpqserve: the /metrics and /debug endpoints
// (same mux by default, a separate -metrics-addr ops listener when
// isolation from the request path is wanted), the JSON-lines access
// log behind -log.

// obsState bundles the process's observability plumbing.
type obsState struct {
	reg   *obs.Registry
	ring  *obs.TraceRing
	pprof bool
}

// mount registers the observability endpoints on a mux: the Prometheus
// exposition at /metrics, the trace-ring dump at /debug/traces, and
// (opt-in) the standard pprof handlers.
func (o *obsState) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.reg.WriteText(w); err != nil {
			log.Printf("mpqserve: rendering /metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		events := o.ring.Events()
		if events == nil {
			events = []obs.TraceEvent{}
		}
		writeJSON(w, http.StatusOK, struct {
			Total  int64            `json:"total"`
			Events []obs.TraceEvent `json:"events"`
		}{o.ring.Total(), events})
	})
	if o.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// startOps serves the observability endpoints on their own listener
// (the -metrics-addr deployment: scrapes and profiles never contend
// with the request path) until ctx is cancelled.
func startOps(ctx context.Context, addr string, o *obsState) {
	mux := http.NewServeMux()
	o.mount(mux)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("mpqserve: metrics listener: %v", err)
		}
	}()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	log.Printf("mpqserve: metrics on %s", addr)
}

// accessLog is the process's request logger; nil (the -log default)
// disables logging with one branch per request. Package-level so both
// transports and their tests share it, like prepareDeadline.
var accessLog *accessLogger

// accessLogger writes one JSON object per request. The stdin transport
// must log away from stdout (the protocol stream); HTTP uses the same
// stderr stream for symmetry.
type accessLogger struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func newAccessLogger(w io.Writer) *accessLogger {
	return &accessLogger{enc: json.NewEncoder(w)}
}

// accessRecord is one logged request.
type accessRecord struct {
	Time      string  `json:"time"`
	Transport string  `json:"transport"`
	Op        string  `json:"op"`
	Key       string  `json:"key,omitempty"`
	Status    int     `json:"status"`
	LatencyMs float64 `json:"latency_ms"`
	// Epsilon is the approximation factor of the plan set that answered
	// (mirrors the /debug/traces field).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Outcome is "ok", "error", or the context verdicts "deadline" /
	// "canceled" (the deadline outcome the satellite task asks for).
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
}

// record logs one request; safe on a nil receiver. epsilon is the
// answering plan set's approximation factor, 0 on requests that carry
// none (errors, stats, planset).
func (l *accessLogger) record(transport, op, key string, status int, start time.Time, err error, epsilon float64) {
	if l == nil {
		return
	}
	rec := accessRecord{
		Time:      start.UTC().Format(time.RFC3339Nano),
		Transport: transport,
		Op:        op,
		Key:       key,
		Status:    status,
		LatencyMs: float64(time.Since(start).Microseconds()) / 1000,
		Epsilon:   epsilon,
		Outcome:   "ok",
	}
	if err != nil {
		rec.Error = err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			rec.Outcome = "deadline"
		case errors.Is(err, context.Canceled):
			rec.Outcome = "canceled"
		default:
			rec.Outcome = "error"
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if eerr := l.enc.Encode(rec); eerr != nil {
		log.Printf("mpqserve: access log: %v", eerr)
	}
}
