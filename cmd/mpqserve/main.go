// mpqserve runs the MPQ optimizer as a service: the preprocessing and
// run-time halves of the paper's Figure 2 behind a concurrent API.
// Clients prepare query templates (optimize once, persist, cache) and
// pick plans for concrete parameter values and preference policies.
//
// Two transports share one JSON protocol:
//
//	mpqserve -addr :8080        # JSON over HTTP
//	mpqserve -stdin             # one JSON request per line on stdin
//
// HTTP endpoints:
//
//	POST /prepare      {"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"epsilon":0.05}
//	POST /pick         {"key":"...","point":[0.5],"policy":"weighted","weights":[1,10000]}
//	POST /pickbatch    {"key":"...","points":[[0.2],[0.5],[0.8]],"policy":"frontier"}
//	GET  /planset/<key>  serialized plan-set document (the peer-fetch endpoint)
//	GET  /stats
//	GET  /metrics        Prometheus text exposition (every /stats field)
//	GET  /debug/traces   recent Prepare flights with per-phase timings
//	GET  /debug/pprof/*  Go profiling handlers (only with -pprof)
//
// Scraping the server:
//
//	curl -s localhost:8080/metrics | grep mpq_prepares_total
//
// -metrics-addr moves /metrics and the /debug endpoints to their own
// listener so scrapes and profiles never contend with the request path.
// -log writes a JSON-lines access log to stderr: op, template key,
// status, latency, the answering plan set's epsilon, and the deadline
// outcome per request.
//
// The stdin protocol wraps the same bodies with an "op" field:
//
//	{"op":"prepare","workload":{...}}
//	{"op":"pick","key":"...","point":[0.5],"policy":"frontier"}
//	{"op":"pickbatch","key":"...","points":[[0.2],[0.8]]}
//	{"op":"stats"}
//
// By default each prepared plan set gets a point-location pick index
// (built at prepare time, persisted with the plan set) so picks —
// batched ones especially — are cell lookups instead of full candidate
// scans; -index=false keeps the linear scan. Results are byte-identical
// either way.
//
// Fleet deployment: -cache-bytes bounds the in-memory plan-set cache
// (size-aware LRU; evicted sets reload transparently), -shared-dir
// points a fleet of mpqserve processes at one shared on-disk plan-set
// store so each template is computed once per fleet, and -peers lists
// sibling servers to fetch prepared documents from before computing.
// -donate lends idle pool workers to in-flight Prepares' split jobs.
//
// -epsilon sets the server's default precision tier: ε > 0 prepares
// ε-approximate Pareto frontiers (every served plan within a (1+ε)
// cost factor of some exact Pareto plan, everywhere in the parameter
// space) in exchange for smaller plan sets and cheaper optimization.
// A request's "epsilon" field overrides the default per template; the
// factor is part of the plan-set key, so exact and approximate tiers
// of the same template coexist in one cache, store, and fleet.
// Prepare, pick, and pickbatch responses carry the answering plan
// set's "epsilon"; the access log and /debug/traces carry it too.
//
// On SIGINT or SIGTERM the server shuts down gracefully: the HTTP listener drains
// in-flight requests (up to -drain), the request queue is drained, and
// the shared store is flushed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpq/internal/core"
	"mpq/internal/fleet"
	"mpq/internal/obs"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		stdin      = flag.Bool("stdin", false, "serve the line protocol on stdin instead of HTTP")
		workers    = flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "request queue depth (0 = 8×workers)")
		dir        = flag.String("dir", "", "directory persisting prepared plan sets across restarts")
		useIdx     = flag.Bool("index", true, "build a point-location pick index per prepared plan set")
		cacheBytes = flag.Int64("cache-bytes", 0, "in-memory plan-set cache budget in bytes (0 = unbounded)")
		sharedDir  = flag.String("shared-dir", "", "shared plan-set store directory for a fleet of servers")
		peers      = flag.String("peers", "", "comma-separated peer base URLs to fetch prepared plan sets from")
		donate     = flag.Bool("donate", true, "donate idle pool workers to in-flight Prepares' split jobs")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")
		epsilon    = flag.Float64("epsilon", 0, "default ε approximation factor for Prepares (0 = exact Pareto sets; a request's \"epsilon\" field overrides)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug endpoints on a separate ops listener (empty = same mux as the HTTP API)")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof profiling handlers on the metrics mux")
		traceCap    = flag.Int("trace", 256, "Prepare trace ring capacity: recent flights kept for /debug/traces (0 disables phase tracing)")
		logReqs     = flag.Bool("log", false, "JSON-lines access log on stderr (op, key, status, latency, outcome)")
	)
	flag.DurationVar(&prepareDeadline, "prepare-deadline", 0, "default deadline per Prepare request (0 = none; per-request deadline_ms overrides)")
	flag.IntVar(&stdinMaxLine, "max-line", stdinMaxLine, "stdin protocol line-length cap in bytes")
	flag.Parse()

	if *epsilon < 0 || *epsilon >= 1 {
		log.Fatalf("-epsilon %v out of range [0, 1)", *epsilon)
	}
	// The lifecycle context: SIGINT/SIGTERM cancels it, which starts the
	// graceful shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := serve.Options{
		Workers: *workers, QueueDepth: *queue, Dir: *dir, Index: *useIdx,
		CacheBytes:    *cacheBytes,
		DonateWorkers: *donate,
	}
	if *epsilon > 0 {
		// A zero Optimizer selects core.DefaultOptions inside serve.New;
		// materialize the defaults here so setting the factor does not
		// silently discard the paper's refinements.
		opts.Optimizer = core.DefaultOptions()
		opts.Optimizer.Epsilon = *epsilon
	}
	if *sharedDir != "" {
		shared, err := fleet.NewDirStore(*sharedDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Shared = shared
	}
	if *peers != "" {
		opts.Peers = fleet.NewPeerClient(strings.Split(*peers, ","), 0)
	}

	if *logReqs {
		// Stderr keeps the stdin transport's protocol stream (stdout)
		// clean; HTTP logs to the same stream for symmetry.
		accessLog = newAccessLogger(os.Stderr)
	}
	ob := &obsState{reg: obs.NewRegistry(), ring: obs.NewTraceRing(*traceCap), pprof: *pprofOn}
	ob.ring.Instrument(ob.reg)
	opts.Trace = ob.ring

	s := serve.New(opts)
	s.RegisterMetrics(ob.reg)
	// Close drains the request queue and flushes the shared store; it
	// runs on every exit path below.
	defer s.Close()

	if *metricsAddr != "" {
		startOps(ctx, *metricsAddr, ob)
	}

	if *stdin {
		if err := runStdin(ctx, s, os.Stdin, os.Stdout); err != nil {
			s.Close()
			log.Fatal(err)
		}
		return
	}
	mux := newMux(s)
	if *metricsAddr == "" {
		ob.mount(mux)
	}
	if err := runHTTP(ctx, s, *addr, *drain, mux); err != nil {
		s.Close()
		log.Fatal(err)
	}
}

// runHTTP serves until the listener fails or ctx is cancelled (SIGINT/
// SIGTERM), then shuts the listener down gracefully within the drain
// deadline. The caller's deferred Server.Close drains the request
// queue and flushes the shared store afterwards.
func runHTTP(ctx context.Context, s *serve.Server, addr string, drain time.Duration, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("mpqserve listening on %s", addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("mpqserve: shutting down, draining requests for up to %v", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("mpqserve: shutdown: %v", err)
	}
	return nil
}

// Wire types of the JSON protocol.

type workloadJS struct {
	Tables  int     `json:"tables"`
	Params  int     `json:"params"`
	Shape   string  `json:"shape"`
	Seed    int64   `json:"seed"`
	MinCard float64 `json:"min_card,omitempty"`
	MaxCard float64 `json:"max_card,omitempty"`
}

type prepareReqJS struct {
	Workload *workloadJS `json:"workload"`
	// DeadlineMs bounds this request (0 = the -prepare-deadline
	// default); an expired deadline answers 504 / an in-band error.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Epsilon, when present, selects this template's precision tier:
	// 0 the exact Pareto set, ε > 0 an ε-approximate frontier. Absent,
	// the server's -epsilon default applies. The factor is part of the
	// plan-set key, so tiers coexist without answering for each other.
	Epsilon *float64 `json:"epsilon,omitempty"`
}

type prepareRespJS struct {
	Key        string  `json:"key"`
	Plans      int     `json:"plans"`
	Cached     bool    `json:"cached"`
	DurationMs float64 `json:"duration_ms"`
	// Epsilon is the approximation factor of the prepared plan set.
	Epsilon float64 `json:"epsilon"`
}

type boundJS struct {
	Metric int     `json:"metric"`
	Max    float64 `json:"max"`
}

type pickReqJS struct {
	Key        string    `json:"key"`
	Point      []float64 `json:"point"`
	Policy     string    `json:"policy"`
	Weights    []float64 `json:"weights,omitempty"`
	Minimize   int       `json:"minimize,omitempty"`
	Bounds     []boundJS `json:"bounds,omitempty"`
	Order      []int     `json:"order,omitempty"`
	DeadlineMs int64     `json:"deadline_ms,omitempty"`
}

type pickBatchReqJS struct {
	Key        string      `json:"key"`
	Points     [][]float64 `json:"points"`
	Policy     string      `json:"policy"`
	Weights    []float64   `json:"weights,omitempty"`
	Minimize   int         `json:"minimize,omitempty"`
	Bounds     []boundJS   `json:"bounds,omitempty"`
	Order      []int       `json:"order,omitempty"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

type errorJS struct {
	Error string `json:"error"`
}

func (r prepareReqJS) template() (serve.Template, error) {
	if r.Workload == nil {
		return serve.Template{}, errors.New("missing workload")
	}
	shape, err := workload.ParseShape(r.Workload.Shape)
	if err != nil {
		return serve.Template{}, err
	}
	if r.Epsilon != nil && (*r.Epsilon < 0 || *r.Epsilon >= 1) {
		return serve.Template{}, fmt.Errorf("epsilon %v out of range [0, 1)", *r.Epsilon)
	}
	return serve.Template{Workload: workload.Config{
		Tables:  r.Workload.Tables,
		Params:  r.Workload.Params,
		Shape:   shape,
		Seed:    r.Workload.Seed,
		MinCard: r.Workload.MinCard,
		MaxCard: r.Workload.MaxCard,
	}, Epsilon: r.Epsilon}, nil
}

func (r pickReqJS) request() serve.PickRequest {
	req := serve.PickRequest{
		Key:      r.Key,
		Point:    append([]float64(nil), r.Point...),
		Policy:   serve.Policy(r.Policy),
		Weights:  r.Weights,
		Minimize: r.Minimize,
		Order:    r.Order,
	}
	for _, b := range r.Bounds {
		req.Bounds = append(req.Bounds, selection.Bound{Metric: b.Metric, Max: b.Max})
	}
	return req
}

// prepareDeadline and stdinMaxLine are the -prepare-deadline and
// -max-line flag values (package-level so both transports and their
// tests share them).
var (
	prepareDeadline time.Duration
	stdinMaxLine    = 1 << 20
)

// reqContext derives one request's context: an explicit deadline_ms
// wins, then the def fallback (the -prepare-deadline flag for
// Prepares); zero for both leaves the parent untouched.
func reqContext(parent context.Context, deadlineMs int64, def time.Duration) (context.Context, context.CancelFunc) {
	switch {
	case deadlineMs > 0:
		return context.WithTimeout(parent, time.Duration(deadlineMs)*time.Millisecond)
	case def > 0:
		return context.WithTimeout(parent, def)
	}
	return parent, func() {}
}

func doPrepare(ctx context.Context, s *serve.Server, body prepareReqJS) (prepareRespJS, error) {
	tpl, err := body.template()
	if err != nil {
		return prepareRespJS{}, err
	}
	ctx, cancel := reqContext(ctx, body.DeadlineMs, prepareDeadline)
	defer cancel()
	res, err := s.Prepare(ctx, tpl)
	if err != nil {
		return prepareRespJS{}, err
	}
	return prepareRespJS{
		Key:        res.Key,
		Plans:      res.NumPlans,
		Cached:     res.Cached,
		DurationMs: float64(res.Duration.Microseconds()) / 1000,
		Epsilon:    res.Epsilon,
	}, nil
}

// doPick answers a pick; the reply encoder (reply.go) renders the
// result.
func doPick(ctx context.Context, s *serve.Server, body pickReqJS) (serve.PickResult, error) {
	ctx, cancel := reqContext(ctx, body.DeadlineMs, 0)
	defer cancel()
	return s.Pick(ctx, body.request())
}

func (r pickBatchReqJS) request() serve.PickBatchRequest {
	req := serve.PickBatchRequest{
		Key:      r.Key,
		Policy:   serve.Policy(r.Policy),
		Weights:  r.Weights,
		Minimize: r.Minimize,
		Order:    r.Order,
	}
	for _, p := range r.Points {
		// The decoder already allocated each point slice fresh; adopt it.
		req.Points = append(req.Points, p)
	}
	for _, b := range r.Bounds {
		req.Bounds = append(req.Bounds, selection.Bound{Metric: b.Metric, Max: b.Max})
	}
	return req
}

func doPickBatch(ctx context.Context, s *serve.Server, body pickBatchReqJS) (serve.PickBatchResult, error) {
	ctx, cancel := reqContext(ctx, body.DeadlineMs, 0)
	defer cancel()
	return s.PickBatch(ctx, body.request())
}

// newMux wires the server behind HTTP. Queue saturation maps to
// 429, a closed server to 503, an unknown key to 404, malformed
// requests to 400. Every handler feeds the access log (a nil logger
// costs one branch).
func newMux(s *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /prepare", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body prepareReqJS
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			accessLog.record("http", "prepare", "", http.StatusBadRequest, start, err, 0)
			return
		}
		resp, err := doPrepare(r.Context(), s, body)
		if err != nil {
			writeError(w, statusOf(err), err)
			accessLog.record("http", "prepare", "", statusOf(err), start, err, 0)
			return
		}
		answer(w, "prepare", resp.Key, start, resp, resp.Epsilon)
	})
	mux.HandleFunc("POST /pick", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body pickReqJS
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			accessLog.record("http", "pick", "", http.StatusBadRequest, start, err, 0)
			return
		}
		resp, err := doPick(r.Context(), s, body)
		if err != nil {
			writeError(w, statusOf(err), err)
			accessLog.record("http", "pick", body.Key, statusOf(err), start, err, 0)
			return
		}
		answer(w, "pick", body.Key, start, resp, resp.Epsilon)
	})
	mux.HandleFunc("POST /pickbatch", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var body pickBatchReqJS
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, err)
			accessLog.record("http", "pickbatch", "", http.StatusBadRequest, start, err, 0)
			return
		}
		resp, err := doPickBatch(r.Context(), s, body)
		if err != nil {
			writeError(w, statusOf(err), err)
			accessLog.record("http", "pickbatch", body.Key, statusOf(err), start, err, 0)
			return
		}
		answer(w, "pickbatch", body.Key, start, resp, resp.Epsilon)
	})
	mux.HandleFunc("GET /planset/{key}", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		key := r.PathValue("key")
		// The peer-fetch endpoint: the serialized plan-set document,
		// byte-identical to what this server loaded or computed. Serves
		// from the cache or the shared store only — never by computing,
		// and never by asking peers (no fetch cascades).
		doc, err := s.Document(key)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			accessLog.record("http", "planset", key, http.StatusNotFound, start, err, 0)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// The content hash lets a fetching peer reject a response
		// corrupted in flight (fleet.PeerClient validates it).
		w.Header().Set(fleet.DocHashHeader, fleet.ContentHash(doc))
		w.WriteHeader(http.StatusOK)
		w.Write(doc)
		accessLog.record("http", "planset", key, http.StatusOK, start, nil, 0)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

// newHandler is newMux as an http.Handler (transport tests exercise
// the API surface without the observability endpoints).
func newHandler(s *serve.Server) http.Handler {
	return newMux(s)
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrUnknownPlanSet):
		return http.StatusNotFound
	case errors.Is(err, selection.ErrNoFeasiblePlan):
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

// answer writes a successful HTTP reply and logs it; a reply that
// cannot be encoded is answered and logged as a 500.
func answer(w http.ResponseWriter, op, key string, start time.Time, v any, epsilon float64) {
	if err := writeJSON(w, http.StatusOK, v); err != nil {
		accessLog.record("http", op, key, http.StatusInternalServerError, start, err, 0)
		return
	}
	accessLog.record("http", op, key, http.StatusOK, start, nil, epsilon)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJS{Error: err.Error()})
}

// stdinLine is one unit of stdin input: a complete line, or the
// marker of one that exceeded the cap (its content already drained).
type stdinLine struct {
	data    []byte
	tooLong bool
}

// readLine reads one newline-terminated line of at most max bytes. A
// longer line is drained to its newline and reported with tooLong —
// the protocol answers a structured error and keeps serving, instead
// of tearing the whole loop on one oversized request.
func readLine(br *bufio.Reader, max int) (stdinLine, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			if len(buf) > max {
				// Over the cap: discard the rest of the line.
				for err == bufio.ErrBufferFull {
					_, err = br.ReadSlice('\n')
				}
				if err != nil && err != io.EOF {
					return stdinLine{tooLong: true}, err
				}
				return stdinLine{tooLong: true}, nil
			}
			continue
		}
		if n := len(buf); n > 0 && buf[n-1] == '\n' {
			buf = buf[:n-1]
		}
		if len(buf) > max {
			return stdinLine{tooLong: true}, err
		}
		return stdinLine{data: buf}, err
	}
}

// runStdin serves the line protocol: one JSON request per input line,
// one JSON response per output line, until EOF or ctx cancellation
// (SIGINT/SIGTERM) — whichever comes first. Requests already read are
// answered before returning; the caller's Server.Close drains the
// queue and flushes the shared store. Malformed JSON and lines over
// the -max-line cap are answered with a structured error object
// in-band; the loop keeps serving.
func runStdin(ctx context.Context, s *serve.Server, in io.Reader, out io.Writer) error {
	lines := make(chan stdinLine)
	scanErr := make(chan error, 1)
	go func() {
		defer close(lines)
		br := bufio.NewReader(in)
		for {
			line, err := readLine(br, stdinMaxLine)
			if len(line.data) > 0 || line.tooLong {
				select {
				case lines <- line:
				case <-ctx.Done():
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					scanErr <- err
				}
				return
			}
		}
	}()
	for {
		select {
		case <-ctx.Done():
			log.Printf("mpqserve: shutting down stdin protocol")
			// Answer anything the reader already read but has not yet
			// handed over: the unbuffered send may be parked an instant
			// behind the signal, so give each pending line a short
			// grace window, bounded overall so a firehose client cannot
			// hold shutdown open.
			deadline := time.After(500 * time.Millisecond)
			for {
				select {
				case line, ok := <-lines:
					if !ok {
						return nil
					}
					// The session context is already done; answer the
					// pending line on its own context so the grace
					// window actually serves it.
					if err := handleLine(context.Background(), s, out, line); err != nil {
						return err
					}
				case <-time.After(50 * time.Millisecond):
					return nil
				case <-deadline:
					return nil
				}
			}
		case line, ok := <-lines:
			if !ok {
				select {
				case err := <-scanErr:
					return err
				default:
					return nil
				}
			}
			if err := handleLine(ctx, s, out, line); err != nil {
				return err
			}
		}
	}
}

// handleLine answers one stdin-protocol request; the returned error is
// an output-write failure (request errors, including oversized and
// malformed lines and replies that cannot be encoded, are answered
// in-band). The access log gets the same op/key/status/latency fields
// as the HTTP transport, with statuses mapped as statusOf would map
// them.
func handleLine(ctx context.Context, s *serve.Server, out io.Writer, line stdinLine) error {
	start := time.Now()
	if line.tooLong {
		accessLog.record("stdin", "", "", http.StatusBadRequest, start, errors.New("line too long"), 0)
		return writeLine(out, errorJS{Error: fmt.Sprintf("line exceeds %d bytes", stdinMaxLine)})
	}
	var op struct {
		Op string `json:"op"`
	}
	if err := json.Unmarshal(line.data, &op); err != nil {
		accessLog.record("stdin", "", "", http.StatusBadRequest, start, err, 0)
		return writeLine(out, errorJS{Error: err.Error()})
	}
	var resp any
	var err error
	var key string
	var epsilon float64
	switch op.Op {
	case "prepare":
		var body prepareReqJS
		if err = json.Unmarshal(line.data, &body); err == nil {
			var r prepareRespJS
			if r, err = doPrepare(ctx, s, body); err == nil {
				key, resp = r.Key, r
				epsilon = r.Epsilon
			}
		}
	case "pick":
		var body pickReqJS
		if err = json.Unmarshal(line.data, &body); err == nil {
			key = body.Key
			var r serve.PickResult
			if r, err = doPick(ctx, s, body); err == nil {
				resp = r
				epsilon = r.Epsilon
			}
		}
	case "pickbatch":
		var body pickBatchReqJS
		if err = json.Unmarshal(line.data, &body); err == nil {
			key = body.Key
			var r serve.PickBatchResult
			if r, err = doPickBatch(ctx, s, body); err == nil {
				resp = r
				epsilon = r.Epsilon
			}
		}
	case "stats":
		resp = s.Stats()
	default:
		err = fmt.Errorf("unknown op %q", op.Op)
	}
	if err != nil {
		accessLog.record("stdin", op.Op, key, statusOf(err), start, err, 0)
		return writeLine(out, errorJS{Error: err.Error()})
	}
	bp, err := renderReply(resp)
	defer releaseReply(bp)
	if err != nil {
		accessLog.record("stdin", op.Op, key, http.StatusInternalServerError, start, err, 0)
	} else {
		accessLog.record("stdin", op.Op, key, http.StatusOK, start, nil, epsilon)
	}
	_, err = out.Write(*bp)
	return err
}
