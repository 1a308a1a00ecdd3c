package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mpq/internal/serve"
)

const prepareLine = `{"workload":{"tables":4,"params":1,"shape":"chain","seed":21}}`

func TestHTTPProtocol(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	status, body := post("/prepare", prepareLine)
	if status != http.StatusOK {
		t.Fatalf("prepare status %d: %s", status, body)
	}
	var prep prepareRespJS
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Key == "" || prep.Plans == 0 || prep.Cached {
		t.Fatalf("prepare response %+v", prep)
	}

	// Concurrent clients hammer pick against the cached set.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	var first pickRespJS
	status, body = post("/pick", fmt.Sprintf(`{"key":%q,"point":[0.5],"policy":"frontier"}`, prep.Key))
	if status != http.StatusOK {
		t.Fatalf("pick status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Choices) == 0 || len(first.Metrics) != 2 {
		t.Fatalf("pick response %+v", first)
	}
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/pick", "application/json",
				strings.NewReader(fmt.Sprintf(`{"key":%q,"point":[0.5],"policy":"frontier"}`, prep.Key)))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			var got pickRespJS
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				errCh <- err
				return
			}
			if fmt.Sprint(got) != fmt.Sprint(first) {
				errCh <- fmt.Errorf("concurrent pick %v != %v", got, first)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Error mapping.
	if status, _ := post("/pick", `{"key":"missing","point":[0.5]}`); status != http.StatusNotFound {
		t.Errorf("unknown key status = %d, want 404", status)
	}
	if status, _ := post("/pick", `{`); status != http.StatusBadRequest {
		t.Errorf("bad json status = %d, want 400", status)
	}
	if status, _ := post("/prepare", `{"workload":{"tables":3,"shape":"dodecahedron"}}`); status != http.StatusBadRequest {
		t.Errorf("bad shape status = %d, want 400", status)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Prepares != 1 || stats.Picks < 9 || stats.Cache.ResidentEntries != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestHTTPPickBatch: /pickbatch on an index-enabled server answers in
// point order and matches individual /pick responses exactly.
func TestHTTPPickBatch(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2, Index: true})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	status, body := post("/prepare", prepareLine)
	if status != http.StatusOK {
		t.Fatalf("prepare status %d: %s", status, body)
	}
	var prep prepareRespJS
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}

	points := []string{"[0.1]", "[0.5]", "[0.9]"}
	singles := make([]pickRespJS, len(points))
	for i, p := range points {
		status, body := post("/pick", fmt.Sprintf(`{"key":%q,"point":%s,"policy":"weighted","weights":[1,10000]}`, prep.Key, p))
		if status != http.StatusOK {
			t.Fatalf("pick %s status %d: %s", p, status, body)
		}
		if err := json.Unmarshal(body, &singles[i]); err != nil {
			t.Fatal(err)
		}
	}

	status, body = post("/pickbatch", fmt.Sprintf(
		`{"key":%q,"points":[%s],"policy":"weighted","weights":[1,10000]}`,
		prep.Key, strings.Join(points, ",")))
	if status != http.StatusOK {
		t.Fatalf("pickbatch status %d: %s", status, body)
	}
	var batch pickBatchRespJS
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Choices) != len(points) {
		t.Fatalf("batch returned %d answers for %d points", len(batch.Choices), len(points))
	}
	for i := range points {
		if fmt.Sprint(batch.Choices[i]) != fmt.Sprint(singles[i].Choices) {
			t.Errorf("batch point %d: %v != single pick %v", i, batch.Choices[i], singles[i].Choices)
		}
	}

	// Error mapping: a bad point in the batch is the client's fault.
	if status, _ := post("/pickbatch", fmt.Sprintf(`{"key":%q,"points":[[0.5],[9]]}`, prep.Key)); status != http.StatusBadRequest {
		t.Errorf("bad batch point status = %d, want 400", status)
	}
	if status, _ := post("/pickbatch", `{"key":"missing","points":[[0.5]]}`); status != http.StatusNotFound {
		t.Errorf("unknown key batch status = %d, want 404", status)
	}

	// The stdin protocol shares the handler logic.
	var out bytes.Buffer
	line := fmt.Sprintf(`{"op":"pickbatch","key":%q,"points":[%s],"policy":"weighted","weights":[1,10000]}`,
		prep.Key, strings.Join(points, ","))
	if err := runStdin(context.Background(), s, strings.NewReader(line+"\n"), &out); err != nil {
		t.Fatal(err)
	}
	var stdinBatch pickBatchRespJS
	if err := json.Unmarshal(out.Bytes(), &stdinBatch); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(stdinBatch) != fmt.Sprint(batch) {
		t.Errorf("stdin batch %v != http batch %v", stdinBatch, batch)
	}

	// Per-point accounting via the handler stack: 3 single picks plus
	// two 3-point batches (HTTP and stdin) = 9 pick points.
	st := s.Stats()
	if want := int64(3 * len(points)); st.Picks != want {
		t.Errorf("Picks = %d, want %d", st.Picks, want)
	}
	if st.Index.BatchRequests != 2 || st.Index.BatchPoints != int64(2*len(points)) ||
		st.Index.IndexPicks != st.Picks {
		t.Errorf("index stats = %+v", st.Index)
	}
}

func TestStdinProtocol(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()

	var out bytes.Buffer
	in := strings.NewReader(
		`{"op":"prepare","workload":{"tables":4,"params":1,"shape":"chain","seed":21}}` + "\n" +
			`{"op":"stats"}` + "\n" +
			`{"op":"bogus"}` + "\n")
	if err := runStdin(context.Background(), s, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d response lines: %q", len(lines), out.String())
	}
	var prep prepareRespJS
	if err := json.Unmarshal([]byte(lines[0]), &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Key == "" || prep.Plans == 0 {
		t.Fatalf("prepare response %+v", prep)
	}

	// Use the key from the first round in a second stdin session
	// against the same server: the cache carries over.
	var out2 bytes.Buffer
	pick := fmt.Sprintf(`{"op":"pick","key":%q,"point":[0.5],"policy":"weighted","weights":[1,10000]}`, prep.Key)
	if err := runStdin(context.Background(), s, strings.NewReader(pick+"\n"), &out2); err != nil {
		t.Fatal(err)
	}
	var res pickRespJS
	if err := json.Unmarshal(out2.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != 1 || res.Choices[0].Plan == "" || len(res.Choices[0].Cost) != 2 {
		t.Fatalf("pick response %+v", res)
	}
	if !strings.Contains(lines[2], "unknown op") {
		t.Errorf("bogus op response = %q", lines[2])
	}
}

// TestHTTPEpsilonTiers: a template prepared exact and at ε = 0.05 over
// the HTTP protocol yields two distinct plan sets (the factor is part
// of the key), the ε tier's Prepare and Pick replies and its access-log
// record carry its factor, and an out-of-range factor is a 400.
func TestHTTPEpsilonTiers(t *testing.T) {
	var logBuf bytes.Buffer
	accessLog = newAccessLogger(&logBuf)
	defer func() { accessLog = nil }()

	s := serve.New(serve.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(newHandler(s))
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/prepare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	status, body := post(prepareLine)
	if status != http.StatusOK {
		t.Fatalf("exact prepare status %d: %s", status, body)
	}
	var exact prepareRespJS
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}

	status, body = post(`{"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"epsilon":0.05}`)
	if status != http.StatusOK {
		t.Fatalf("epsilon prepare status %d: %s", status, body)
	}
	var approx prepareRespJS
	if err := json.Unmarshal(body, &approx); err != nil {
		t.Fatal(err)
	}
	if approx.Key == exact.Key {
		t.Errorf("epsilon tier shares the exact tier's key %q", exact.Key)
	}
	if approx.Cached {
		t.Errorf("epsilon tier answered from the exact tier's cache entry")
	}
	if exact.Epsilon != 0 || approx.Epsilon != 0.05 {
		t.Errorf("prepare reply epsilons = %v, %v; want 0, 0.05", exact.Epsilon, approx.Epsilon)
	}
	status, body = httpPost(t, ts.URL+"/pick", `{"key":"`+approx.Key+`","point":[0.5]}`)
	if status != http.StatusOK {
		t.Fatalf("epsilon pick status %d: %s", status, body)
	}
	var pick pickRespJS
	if err := json.Unmarshal(body, &pick); err != nil {
		t.Fatal(err)
	}
	if pick.Epsilon != 0.05 {
		t.Errorf("pick reply epsilon = %v, want 0.05", pick.Epsilon)
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
	if len(recs) != 3 {
		t.Fatalf("logged %d records, want 3: %+v", len(recs), recs)
	}
	if recs[0].Op != "prepare" || recs[0].Epsilon != 0 {
		t.Errorf("exact prepare record = %+v, want epsilon 0", recs[0])
	}
	if recs[1].Op != "prepare" || recs[1].Key != approx.Key || recs[1].Epsilon != 0.05 {
		t.Errorf("epsilon prepare record = %+v, want epsilon 0.05", recs[1])
	}
	if recs[2].Op != "pick" || recs[2].Key != approx.Key || recs[2].Epsilon != 0.05 {
		t.Errorf("epsilon pick record = %+v, want epsilon 0.05", recs[2])
	}
	// An explicit "epsilon":0 addresses the exact tier.
	status, body = post(`{"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"epsilon":0}`)
	if status != http.StatusOK {
		t.Fatalf("explicit-zero prepare status %d: %s", status, body)
	}
	var zero prepareRespJS
	if err := json.Unmarshal(body, &zero); err != nil {
		t.Fatal(err)
	}
	if zero.Key != exact.Key || !zero.Cached {
		t.Errorf("explicit epsilon 0 response %+v, want cached key %q", zero, exact.Key)
	}

	if status, _ := post(`{"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"epsilon":1.5}`); status != http.StatusBadRequest {
		t.Errorf("out-of-range epsilon status = %d, want 400", status)
	}
}
