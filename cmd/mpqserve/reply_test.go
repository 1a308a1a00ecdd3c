package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/selection"
	"mpq/internal/serve"
)

// Wire schema of pick and batch replies. Clients (and the tests here)
// decode into these; rendered through encoding/json they are the
// reference the reply encoder must match byte for byte.

type choiceJS struct {
	Plan string    `json:"plan"`
	Cost []float64 `json:"cost"`
}

type pickRespJS struct {
	Metrics []string   `json:"metrics"`
	Choices []choiceJS `json:"choices"`
	// Epsilon is the approximation factor of the answering plan set.
	Epsilon float64 `json:"epsilon"`
}

type pickBatchRespJS struct {
	Metrics []string     `json:"metrics"`
	Choices [][]choiceJS `json:"choices"`
	// Epsilon is the approximation factor of the answering plan set.
	Epsilon float64 `json:"epsilon"`
}

func refChoices(cs []selection.Choice) []choiceJS {
	out := []choiceJS{}
	for _, c := range cs {
		out = append(out, choiceJS{Plan: c.Plan.String(), Cost: c.Cost})
	}
	return out
}

// refEncode renders a pick or batch result the reflection way:
// json.Encoder.Encode of the wire schema, with every plan rendered by
// Node.String at encode time.
func refEncode(v any) ([]byte, error) {
	var resp any
	switch r := v.(type) {
	case serve.PickResult:
		resp = pickRespJS{Metrics: r.Metrics, Choices: refChoices(r.Choices), Epsilon: r.Epsilon}
	case serve.PickBatchResult:
		out := pickBatchRespJS{Metrics: r.Metrics, Choices: [][]choiceJS{}, Epsilon: r.Epsilon}
		for _, cs := range r.Choices {
			out.Choices = append(out.Choices, refChoices(cs))
		}
		resp = out
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// checkReply asserts the encoder's bytes for v equal the reference.
func checkReply(t *testing.T, what string, v any) []byte {
	t.Helper()
	want, err := refEncode(v)
	if err != nil {
		t.Fatalf("%s: reference encoding: %v", what, err)
	}
	got, err := appendReply(nil, v)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
	return want
}

// TestPickReplyBytesMatchEncodingJSON is the wire byte-identity
// property: for chain, star and clique plan sets, every policy, single
// picks and batches, the reply encoder's bytes — direct, over HTTP and
// over the stdin protocol — equal json.Encoder.Encode of the wire
// schema.
func TestPickReplyBytesMatchEncodingJSON(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2, Index: true})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()
	ctx := context.Background()

	templates := []string{
		`{"tables":4,"params":1,"shape":"chain","seed":21}`,
		`{"tables":4,"params":2,"shape":"star","seed":5}`,
		`{"tables":4,"params":1,"shape":"clique","seed":7}`,
	}
	policies := []string{
		`"policy":"frontier"`,
		`"policy":"weighted","weights":[1,10000]`,
		`"policy":"bound","minimize":0,"bounds":[{"metric":1,"max":1e300}]`,
		`"policy":"lex","order":[1,0]`,
	}
	for _, tplJS := range templates {
		var prep prepareReqJS
		if err := json.Unmarshal([]byte(`{"workload":`+tplJS+`}`), &prep); err != nil {
			t.Fatal(err)
		}
		tpl, err := prep.template()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Prepare(ctx, tpl)
		if err != nil {
			t.Fatal(err)
		}
		params := tpl.Workload.Params
		var points []string
		for _, v := range []string{"0.01", "0.3", "0.77", "0.99"} {
			points = append(points, "["+strings.TrimSuffix(strings.Repeat(v+",", params), ",")+"]")
		}
		for _, pol := range policies {
			for _, p := range points {
				body := fmt.Sprintf(`{"key":%q,"point":%s,%s}`, res.Key, p, pol)
				var req pickReqJS
				if err := json.Unmarshal([]byte(body), &req); err != nil {
					t.Fatal(err)
				}
				r, err := s.Pick(ctx, req.request())
				if err != nil {
					t.Fatalf("%s %s %s: %v", tplJS, pol, p, err)
				}
				want := checkReply(t, "pick "+body, r)
				checkTransports(t, ts.URL, s, "pick", body, want)
			}
			body := fmt.Sprintf(`{"key":%q,"points":[%s],%s}`, res.Key, strings.Join(points, ","), pol)
			var req pickBatchReqJS
			if err := json.Unmarshal([]byte(body), &req); err != nil {
				t.Fatal(err)
			}
			r, err := s.PickBatch(ctx, req.request())
			if err != nil {
				t.Fatalf("%s %s batch: %v", tplJS, pol, err)
			}
			want := checkReply(t, "pickbatch "+body, r)
			checkTransports(t, ts.URL, s, "pickbatch", body, want)
		}
	}
}

// checkTransports sends one request body over HTTP and over the stdin
// protocol and compares both reply bodies with want.
func checkTransports(t *testing.T, url string, s *serve.Server, op, body string, want []byte) {
	t.Helper()
	resp, err := http.Post(url+"/"+op, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("http %s %s: status %d\n got %s\nwant %s", op, body, resp.StatusCode, got.Bytes(), want)
	}
	line := fmt.Sprintf(`{"op":%q,%s`, op, body[1:])
	got.Reset()
	if err := runStdin(context.Background(), s, strings.NewReader(line+"\n"), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stdin %s:\n got %s\nwant %s", line, got.Bytes(), want)
	}
}

// TestPickReplyFloatEdgeCases drives the encoder over synthetic
// results: float edge cases at both ends of encoding/json's 'f'/'e'
// switch, signed zeros, random bit patterns, strings needing HTML or
// Unicode escapes, nil and empty lists, and a plan outside any
// resident set (rendered on the spot).
func TestPickReplyFloatEdgeCases(t *testing.T) {
	p := plan.Join(`hash<&>`, plan.Scan(0, "scan"), plan.Scan(1, `idx"scan`))
	edges := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, -1e21, 123456789, -123456789,
		0.1, -0.1, 1e-6, -1e-6, 9.99e-7, 1e20, 9.999999999999999e20, 1e-300, 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, 1.5e-10, -2.5, 1e100, 12345678.9e-13}
	rng := rand.New(rand.NewSource(1))
	for len(edges) < 2000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		edges = append(edges, f, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var choices []selection.Choice
	for i := 0; i < len(edges); i += 3 {
		choices = append(choices, selection.Choice{Plan: p, Cost: geometry.Vector(edges[i:min(i+3, len(edges))])})
	}
	choices = append(choices, selection.Choice{Plan: p}) // nil cost → null
	metricSets := [][]string{nil, {}, {"time", "money"}, {"a<b", "x&y>"}, {`<a&"b">`, "é\u2028\x01", "\xff"}}
	for _, metrics := range metricSets {
		for _, eps := range edges[:24] {
			checkReply(t, "pick", serve.PickResult{Metrics: metrics, Choices: choices, Epsilon: eps})
			checkReply(t, "empty pick", serve.PickResult{Metrics: metrics, Epsilon: eps})
			checkReply(t, "batch", serve.PickBatchResult{Metrics: metrics,
				Choices: [][]selection.Choice{choices[:2], nil, choices[2:]}, Epsilon: eps})
			checkReply(t, "empty batch", serve.PickBatchResult{Metrics: metrics, Epsilon: eps})
		}
	}
}

// TestReplyEncodeFailureAnswers500: a reply that cannot be encoded (a
// non-finite float) answers 500 with encoding/json's error in the
// usual error object — over HTTP for pick, batch and generic replies,
// and in-band over the stdin protocol — never a 200 with a truncated
// body.
func TestReplyEncodeFailureAnswers500(t *testing.T) {
	p := plan.Scan(0, "scan")
	inf := []selection.Choice{{Plan: p, Cost: geometry.Vector{1, math.Inf(1)}}}
	cases := []struct {
		name string
		v    any
	}{
		{"pick cost", serve.PickResult{Metrics: []string{"a", "b"}, Choices: inf}},
		{"pick epsilon", serve.PickResult{Epsilon: math.NaN()}},
		{"batch cost", serve.PickBatchResult{Choices: [][]selection.Choice{nil, inf}}},
		{"prepare", prepareRespJS{Key: "k", DurationMs: math.Inf(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := refEncode(tc.v)
			if _, ok := tc.v.(prepareRespJS); ok {
				_, refErr = json.Marshal(tc.v)
			}
			if refErr == nil {
				t.Fatal("reference encoding accepted a non-finite value")
			}
			want := fmt.Sprintf("{\"error\":%q}\n", refErr.Error())

			rec := httptest.NewRecorder()
			if err := writeJSON(rec, http.StatusOK, tc.v); err == nil || err.Error() != refErr.Error() {
				t.Errorf("writeJSON error = %v, want %v", err, refErr)
			}
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
				t.Errorf("http reply = %d %q, want 500 %q", rec.Code, rec.Body.String(), want)
			}

			var out bytes.Buffer
			if err := writeLine(&out, tc.v); err != nil {
				t.Fatal(err)
			}
			if out.String() != want {
				t.Errorf("stdin reply = %q, want %q", out.String(), want)
			}
		})
	}
}
