package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpq/internal/obs"
	"mpq/internal/serve"
)

// newObsServer wires a server the way main does: traced,
// metrics-registered, observability endpoints mounted on the API mux.
func newObsServer(t *testing.T) (*serve.Server, *obsState, *httptest.Server) {
	t.Helper()
	ob := &obsState{reg: obs.NewRegistry(), ring: obs.NewTraceRing(16)}
	ob.ring.Instrument(ob.reg)
	s := serve.New(serve.Options{Workers: 2, Trace: ob.ring})
	t.Cleanup(s.Close)
	s.RegisterMetrics(ob.reg)
	mux := newMux(s)
	ob.mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ob, ts
}

func httpPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestMetricsEndpoint drives the API then scrapes /metrics: the scrape
// must carry the right content type, pass the exposition lint, agree
// with /stats on the headline counters, and stay monotonic.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newObsServer(t)

	scrape := func() (string, []*obs.Family) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		fams, err := obs.ParseExposition(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("scrape does not parse: %v", err)
		}
		if errs := obs.Lint(fams); len(errs) != 0 {
			t.Fatalf("scrape fails lint: %v", errs)
		}
		return buf.String(), fams
	}
	_, before := scrape()

	status, body := httpPost(t, ts.URL+"/prepare", prepareLine)
	if status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}
	var prep prepareRespJS
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if status, body := httpPost(t, ts.URL+"/pick",
			fmt.Sprintf(`{"key":%q,"point":[0.5],"policy":"frontier"}`, prep.Key)); status != http.StatusOK {
			t.Fatalf("pick: %d %s", status, body)
		}
	}

	text, after := scrape()
	if errs := obs.CheckMonotonic(before, after); len(errs) != 0 {
		t.Fatalf("counters regressed: %v", errs)
	}
	want := map[string]float64{
		"mpq_prepares_total":        1,
		"mpq_picks_total":           3,
		"mpq_prepare_seconds_count": 1,
		"mpq_cached_plan_sets":      1,
	}
	got := map[string]float64{}
	for _, f := range after {
		for _, smp := range f.Samples {
			if len(smp.Labels) == 0 {
				got[smp.Name] = smp.Value
			}
		}
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v\nscrape:\n%s", name, got[name], v, text)
		}
	}
}

// TestDebugTracesEndpoint: computed prepares show up as JSON trace
// events with their phase breakdown.
func TestDebugTracesEndpoint(t *testing.T) {
	_, _, ts := newObsServer(t)

	if status, body := httpPost(t, ts.URL+"/prepare", prepareLine); status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Total  int64            `json:"total"`
		Events []obs.TraceEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 1 || len(out.Events) != 1 {
		t.Fatalf("traces = %+v", out)
	}
	ev := out.Events[0]
	if ev.Op != "prepare" || ev.Source != "computed" || ev.Key == "" || len(ev.Phases) == 0 {
		t.Fatalf("event = %+v", ev)
	}
}

// TestPprofOptIn: the profiling handlers exist only when asked for.
func TestPprofOptIn(t *testing.T) {
	for _, on := range []bool{false, true} {
		ob := &obsState{reg: obs.NewRegistry(), pprof: on}
		mux := http.NewServeMux()
		ob.mount(mux)
		req := httptest.NewRequest("GET", "/debug/pprof/cmdline", nil)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if on && rr.Code != http.StatusOK {
			t.Errorf("pprof on: /debug/pprof/cmdline = %d", rr.Code)
		}
		if !on && rr.Code != http.StatusNotFound {
			t.Errorf("pprof off: /debug/pprof/cmdline = %d, want 404", rr.Code)
		}
	}
}

// TestAccessLogHTTP checks the JSON-lines shape on the HTTP transport:
// one object per request with op, key, status, latency, and outcome.
func TestAccessLogHTTP(t *testing.T) {
	var logBuf bytes.Buffer
	accessLog = newAccessLogger(&logBuf)
	defer func() { accessLog = nil }()

	s := serve.New(serve.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()

	status, body := httpPost(t, ts.URL+"/prepare", prepareLine)
	if status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}
	var prep prepareRespJS
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if status, _ := httpPost(t, ts.URL+"/pick", `{"key":"missing","point":[0.5]}`); status != http.StatusNotFound {
		t.Fatalf("missing key: %d", status)
	}

	var recs []accessRecord
	dec := json.NewDecoder(&logBuf)
	for dec.More() {
		var rec accessRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("logged %d records, want 2: %+v", len(recs), recs)
	}
	ok, bad := recs[0], recs[1]
	if ok.Transport != "http" || ok.Op != "prepare" || ok.Key != prep.Key ||
		ok.Status != 200 || ok.Outcome != "ok" || ok.Error != "" || ok.LatencyMs < 0 {
		t.Errorf("prepare record = %+v", ok)
	}
	if _, err := time.Parse(time.RFC3339Nano, ok.Time); err != nil {
		t.Errorf("timestamp %q: %v", ok.Time, err)
	}
	if bad.Op != "pick" || bad.Key != "missing" || bad.Status != 404 ||
		bad.Outcome != "error" || bad.Error == "" {
		t.Errorf("error record = %+v", bad)
	}
}

// TestAccessLogStdin: the stdin transport logs the same shape, with
// the protocol stream untouched (the log goes to its own writer).
func TestAccessLogStdin(t *testing.T) {
	var logBuf bytes.Buffer
	accessLog = newAccessLogger(&logBuf)
	defer func() { accessLog = nil }()

	s := serve.New(serve.Options{Workers: 1})
	defer s.Close()

	in := strings.NewReader(`{"op":"prepare","workload":{"tables":4,"params":1,"shape":"chain","seed":21}}` + "\n" + `{"op":"nope"}` + "\n")
	var out bytes.Buffer
	if err := runStdin(context.Background(), s, in, &out); err != nil {
		t.Fatal(err)
	}
	// Two protocol responses on stdout, two log records on the side.
	if lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1; lines != 2 {
		t.Fatalf("protocol stream has %d lines: %s", lines, out.String())
	}
	var recs []accessRecord
	dec := json.NewDecoder(&logBuf)
	for dec.More() {
		var rec accessRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("logged %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].Transport != "stdin" || recs[0].Op != "prepare" || recs[0].Status != 200 || recs[0].Key == "" {
		t.Errorf("prepare record = %+v", recs[0])
	}
	if recs[1].Op != "nope" || recs[1].Status != 400 || recs[1].Outcome != "error" {
		t.Errorf("unknown-op record = %+v", recs[1])
	}
}

// TestNilAccessLogIsSilent: the -log default records nothing and
// (being a nil method receiver) costs a single branch.
func TestNilAccessLogIsSilent(t *testing.T) {
	accessLog = nil
	s := serve.New(serve.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()
	if status, body := httpPost(t, ts.URL+"/prepare", prepareLine); status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}
}
