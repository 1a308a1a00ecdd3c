package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// keyed is a prepared plan set: its server key and its reference.
type keyed struct {
	key string
	ref *reference
}

// chooser picks the plan set of the next request.
type chooser func(rng *rand.Rand) keyed

func uniform(sets []keyed) chooser {
	return func(rng *rand.Rand) keyed { return sets[rng.Intn(len(sets))] }
}

// pickLog keeps one answered pick or batch for verification after the
// timed window.
type pickLog struct {
	req  pickReq
	body []byte
}

// prepLog keeps one answered Prepare for verification.
type prepLog struct {
	tpl template
	key string
}

// pickStats collects a pick loop's observations.
type pickStats struct {
	lat       series
	logs      []pickLog
	respBytes int64
}

// batchStats collects a batch loop's observations.
type batchStats struct {
	lat      series    // whole-batch latency
	perPoint []float64 // seconds per point, one entry per answered batch
	logs     []pickLog
}

func newPick(rng *rand.Rand, k keyed) pickReq {
	r := pickReq{Key: k.key, Point: randomPoint(rng, k.ref)}
	randomPolicy(rng, &r, policies[rng.Intn(len(policies))], len(k.ref.metrics))
	return r
}

func newBatch(rng *rand.Rand, k keyed, points int) pickReq {
	r := pickReq{Key: k.key, Points: make([][]float64, points)}
	for i := range r.Points {
		r.Points[i] = randomPoint(rng, k.ref)
	}
	randomPolicy(rng, &r, policies[rng.Intn(len(policies))], len(k.ref.metrics))
	return r
}

// pickLoop issues single picks on c, one at a time, until deadline.
// Every warmEvery-th request re-Prepares the chosen plan set's template
// instead, so warm Prepares are sampled across the whole window.
func pickLoop(c *conn, rng *rand.Rand, choose chooser, deadline time.Time, st *pickStats, warm *series) error {
	for i := 1; time.Now().Before(deadline); i++ {
		k := choose(rng)
		if i%warmEvery == 0 {
			if err := rePrepare(c, k, warm); err != nil {
				return err
			}
			continue
		}
		r := newPick(rng, k)
		body, _ := json.Marshal(r)
		out, d, o, err := c.do(http.MethodPost, "/pick", body)
		st.lat.add(d, o)
		logFailure(o, err)
		if o == ok {
			st.respBytes += int64(len(out))
			st.logs = append(st.logs, pickLog{req: r, body: out})
		}
	}
	return nil
}

// rePrepare re-Prepares a resident template, which must answer from the
// cache under the same key. A failed request is counted, not fatal.
func rePrepare(c *conn, k keyed, warm *series) error {
	resp, err := prepare(c, k.ref.tpl, warm)
	if err != nil {
		return nil
	}
	if resp.Key != k.key || !resp.Cached {
		return fmt.Errorf("re-prepare of %v: key %s cached=%v, want key %s cached", k.ref.tpl, resp.Key, resp.Cached, k.key)
	}
	return nil
}

// batchLoop issues PickBatches of the given size on c until deadline.
func batchLoop(c *conn, rng *rand.Rand, choose chooser, points int, deadline time.Time, st *batchStats) {
	for time.Now().Before(deadline) {
		r := newBatch(rng, choose(rng), points)
		body, _ := json.Marshal(r)
		out, d, o, err := c.do(http.MethodPost, "/pickbatch", body)
		st.lat.add(d, o)
		logFailure(o, err)
		if o == ok {
			st.perPoint = append(st.perPoint, d.Seconds()/float64(points))
			st.logs = append(st.logs, pickLog{req: r, body: out})
		}
	}
}

// logFailure reports the first few failed requests on standard error.
func logFailure(o outcome, err error) {
	if o != ok && failuresLogged.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "e2ebench: request failed:", err)
	}
}

var failuresLogged atomic.Int64

// prepare issues one Prepare and records it in s.
func prepare(c *conn, t template, s *series) (prepareResp, error) {
	out, d, o, err := c.do(http.MethodPost, "/prepare", prepareBody(t))
	s.add(d, o)
	logFailure(o, err)
	if err != nil {
		return prepareResp{}, fmt.Errorf("prepare %v: %w", t, err)
	}
	var resp prepareResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return prepareResp{}, fmt.Errorf("prepare %v: %w", t, err)
	}
	return resp, nil
}
