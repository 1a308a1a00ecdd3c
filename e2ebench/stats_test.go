package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending: tailOf must sort
	}
	return v
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		short      bool
	}{
		{n: 1000, value: 990, pct: 99},
		{n: 100, value: 90, pct: 90},
		{n: 11, value: 1, pct: 100.0 / 11},
		{n: 10, value: 10, pct: 100, short: true},
		{n: 1, value: 1, pct: 100, short: true},
	} {
		got := tailOf(seq(tc.n))
		if got.Value != tc.value || math.Abs(got.Percentile-tc.pct) > 1e-9 || got.Short != tc.short || got.N != tc.n {
			t.Errorf("n=%d: tail %+v, want value %v at p%v (short %v)", tc.n, got, tc.value, tc.pct, tc.short)
		}
		if !tc.short {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestFailuresCountAndMissEveryBound checks that refused and timed-out
// requests count in failed_share and enter the latency sample above any
// answered request.
func TestFailuresCountAndMissEveryBound(t *testing.T) {
	var s series
	for i := 0; i < 7; i++ {
		s.add(time.Millisecond, ok)
	}
	s.add(time.Millisecond, failed)
	s.add(time.Millisecond, refused)
	s.add(time.Microsecond, timedOut)
	var other series
	other.add(time.Millisecond, ok)
	share, attempted, bad := failedShare(&s, &other)
	if attempted != 11 || bad != 3 || math.Abs(share-3.0/11) > 1e-12 {
		t.Fatalf("failedShare = %v (%d of %d), want 3 of 11", share, bad, attempted)
	}
	slow := 0
	for _, x := range s.lat {
		if x >= failureLatency.Seconds() {
			slow++
		}
	}
	if slow != 3 {
		t.Errorf("%d samples at the failure latency, want 3", slow)
	}
	if tl := tailOf(s.lat); tl.Value != failureLatency.Seconds() {
		t.Errorf("tail %v does not reflect the failures", tl.Value)
	}
}

// TestConnClassifiesOutcomes drives conn.do against statuses the server
// maps refusals and deadlines to, and against a client timeout.
func TestConnClassifiesOutcomes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/queue-full":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/closed":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/deadline":
			w.WriteHeader(http.StatusGatewayTimeout)
		case "/bad":
			w.WriteHeader(http.StatusBadRequest)
		case "/slow":
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
			}
		}
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	for path, want := range map[string]outcome{"/": ok, "/queue-full": refused, "/closed": refused, "/deadline": timedOut, "/bad": failed} {
		if _, _, got, _ := c.do(http.MethodGet, path, nil); got != want {
			t.Errorf("%s: outcome %v, want %v", path, got, want)
		}
	}
	c.c.Timeout = 50 * time.Millisecond
	if _, _, got, _ := c.do(http.MethodGet, "/slow", nil); got != timedOut {
		t.Errorf("client timeout: outcome %v, want timedOut", got)
	}
}
