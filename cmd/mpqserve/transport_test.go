package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpq/internal/serve"
)

// slowPrepareLine is a template that optimizes for seconds — long
// enough that a millisecond deadline reliably expires first.
// cycle-2p/6t/s1 solves 1,374,961 LPs over 25 join masks; one worker
// took 2.5–3.2 s in six runs on a 2-CPU x86-64 box, 50× the 50 ms
// deadlines below.
const slowPrepareLine = `"workload":{"tables":6,"params":2,"shape":"cycle","seed":1}`

// TestReadLine covers the stdin framing layer: the cap applies per
// line, an oversized line is drained to its newline, and the lines
// after it are delivered intact.
func TestReadLine(t *testing.T) {
	const max = 32
	cases := []struct {
		name    string
		input   string
		want    []string // per read: the line content, or "" with tooLong
		tooLong []bool
	}{
		{"short lines", "a\nbb\n", []string{"a", "bb"}, []bool{false, false}},
		{"exactly max", strings.Repeat("x", max) + "\n", []string{strings.Repeat("x", max)}, []bool{false}},
		{"one over max", strings.Repeat("x", max+1) + "\n", []string{""}, []bool{true}},
		{"oversized then fine", strings.Repeat("y", 100) + "\nok\n", []string{"", "ok"}, []bool{true, false}},
		{"oversized spanning buffers", strings.Repeat("z", 4000) + "\nafter\n", []string{"", "after"}, []bool{true, false}},
		{"unterminated tail", "tail", []string{"tail"}, []bool{false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A deliberately tiny buffer so long lines span many
			// ReadSlice calls.
			br := bufio.NewReaderSize(strings.NewReader(tc.input), 16)
			for i := range tc.want {
				line, err := readLine(br, max)
				if err != nil && i < len(tc.want)-1 {
					t.Fatalf("read %d: %v", i, err)
				}
				if line.tooLong != tc.tooLong[i] {
					t.Errorf("read %d: tooLong = %v, want %v", i, line.tooLong, tc.tooLong[i])
				}
				if string(line.data) != tc.want[i] {
					t.Errorf("read %d: data = %q, want %q", i, line.data, tc.want[i])
				}
			}
		})
	}
}

// TestStdinProtocolResilience is the table-driven malformed-input
// test: every bad line gets a structured error object in-band, and
// the loop keeps serving — the valid request at the end still works.
func TestStdinProtocolResilience(t *testing.T) {
	saved := stdinMaxLine
	stdinMaxLine = 256
	defer func() { stdinMaxLine = saved }()

	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()

	lines := []struct {
		name      string
		line      string
		wantError string // substring of the in-band error, "" = success
	}{
		{"malformed json", `{"op":"pick",`, "unexpected end"},
		{"not json at all", `GET / HTTP/1.1`, "invalid character"},
		{"oversized line", strings.Repeat("a", 600), "exceeds 256 bytes"},
		{"unknown op", `{"op":"explode"}`, "unknown op"},
		{"unknown key", `{"op":"pick","key":"nope","point":[0.5]}`, "unknown plan-set key"},
		{"expired deadline", `{"op":"prepare","deadline_ms":1,` + slowPrepareLine + `}`, "deadline"},
		{"valid prepare", prepareLine[:1] + `"op":"prepare",` + prepareLine[1:], ""},
		{"valid stats", `{"op":"stats"}`, ""},
	}
	var in strings.Builder
	for _, l := range lines {
		in.WriteString(l.line)
		in.WriteByte('\n')
	}
	var out bytes.Buffer
	if err := runStdin(t.Context(), s, strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d responses for %d requests:\n%s", len(got), len(lines), out.String())
	}
	for i, l := range lines {
		var e errorJS
		if err := json.Unmarshal([]byte(got[i]), &e); err != nil {
			t.Errorf("%s: response %q is not JSON: %v", l.name, got[i], err)
			continue
		}
		if l.wantError == "" {
			if e.Error != "" {
				t.Errorf("%s: unexpected error %q", l.name, e.Error)
			}
		} else if !strings.Contains(e.Error, l.wantError) {
			t.Errorf("%s: error %q does not mention %q", l.name, e.Error, l.wantError)
		}
	}
}

// TestHTTPDeadlines covers the deadline knobs on the HTTP transport:
// a per-request deadline_ms expires as 504, the -prepare-deadline
// default applies when the request carries none, and an explicit
// deadline_ms overrides the flag.
func TestHTTPDeadlines(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()

	post := func(body string) (int, errorJS) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/prepare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorJS
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	cases := []struct {
		name       string
		body       string
		flag       time.Duration
		wantStatus int
	}{
		{"deadline_ms expires", `{"deadline_ms":50,` + slowPrepareLine + `}`,
			0, http.StatusGatewayTimeout},
		{"flag default applies", `{` + slowPrepareLine + `}`,
			50 * time.Millisecond, http.StatusGatewayTimeout},
		{"deadline_ms beats a generous flag", `{"deadline_ms":50,` + slowPrepareLine + `}`,
			time.Hour, http.StatusGatewayTimeout},
		{"no deadline at all succeeds", prepareLine, 0, http.StatusOK},
	}
	saved := prepareDeadline
	defer func() { prepareDeadline = saved }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prepareDeadline = tc.flag
			start := time.Now()
			status, e := post(tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", status, e.Error, tc.wantStatus)
			}
			if tc.wantStatus == http.StatusGatewayTimeout {
				if !strings.Contains(e.Error, "deadline") {
					t.Errorf("error %q does not mention the deadline", e.Error)
				}
				// The full optimization takes seconds; an enforced
				// deadline must come back long before that.
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("deadline-bounded prepare took %v", d)
				}
			}
		})
	}

	// The server survives all those abandoned prepares: stats still
	// count them and a fresh pick works end to end.
	var stats serve.Stats
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.DeadlineExpiries != 3 {
		t.Errorf("deadline expiries = %d, want 3", stats.DeadlineExpiries)
	}
}

// TestStatusOfContextErrors pins the HTTP mappings of the new failure
// kinds.
func TestStatusOfContextErrors(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrapped: %w", serve.ErrQueueFull), http.StatusTooManyRequests},
		{fmt.Errorf("core: optimize: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("core: optimize: %w", context.Canceled), http.StatusRequestTimeout},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
