package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// runEnv is what every workload runs with.
type runEnv struct {
	ctx    context.Context
	bin    string // mpqserve binary
	work   string // scratch directory inside the checkout
	rng    *rand.Rand
	seed   int64
	window time.Duration // the timed window (--seconds)
	probe  time.Duration // the probes of the metrics a workload does not focus on
	cpus   int
}

// Fixed shape of the traffic.
const (
	batchPoints = 256 // points per PickBatch
	// rounds is how many servers pick-hot runs: each is set up and
	// measured for a quarter of the window. setup_s is their median, and
	// spreading every metric over the run keeps a passing slow spell of
	// a shared machine from skewing one of them. Four rounds also give
	// four cold probes, the samples per template of a prepare-cold run
	// at --seconds 15, so the cold tail falls at the same rank on both
	// workloads.
	rounds    = 4
	warmEvery = 32 // connection A re-Prepares instead of picking every warmEvery requests
	// unboundedCache is the -cache-bytes of the workloads that do not
	// evict: it never binds, but a budgeted cache keeps each document's
	// bytes, so GET /planset can serve them for verification.
	unboundedCache = 1 << 40
	// coldPassSeconds is the nominal length of one prepare-cold pass on a
	// 2-CPU box. The run makes a whole number of passes fixed by
	// --seconds, so every run has the same sample size and the tail the
	// same rank.
	coldPassSeconds = 4
)

// run is one workload run's end-to-end observations.
type run struct {
	flags    []string // mpqserve flags of the measured server
	setup    []float64
	cold     series
	coldSpan time.Duration // the time the cold Prepares completed in
	warm     series
	picks    pickStats
	pickSpan time.Duration
	batches  batchStats
	peakMB   []float64
	// window sums the /stats deltas of the timed segments; last is the
	// /stats of the last one's end.
	window, last statsJS
	refs         map[template]*reference
	byKey        map[string]*reference
	keys         []keyed // the workload's prepared plan sets, in template order
}

func newRun() *run {
	return &run{refs: map[template]*reference{}, byKey: map[string]*reference{}}
}

// references computes the ground truth for ts and draws its pick points.
func (r *run) references(e *runEnv, ts []template) error {
	refs, err := computeReferences(e.ctx, ts, e.cpus)
	if err != nil {
		return err
	}
	for _, ref := range refs {
		r.refs[ref.tpl] = ref
	}
	fillPoints(refs, e.seed)
	progress("references and pick points ready")
	return nil
}

// prepareAll prepares ts in a seeded order on one connection, recording
// every Prepare in cold; each must be computed, not served from a cache.
// It verifies the served documents against their references and
// returns the time the Prepares took.
func (r *run) prepareAll(e *runEnv, srv *server, ts []template, cold *series) (time.Duration, error) {
	c := newConn(srv.base)
	defer c.close()
	t0 := time.Now()
	var logs []prepLog
	for _, i := range e.rng.Perm(len(ts)) {
		resp, err := prepare(c, ts[i], cold)
		if err != nil {
			return 0, err
		}
		if resp.Cached {
			return 0, fmt.Errorf("prepare of %v was served from cache", ts[i])
		}
		logs = append(logs, prepLog{tpl: ts[i], key: resp.Key})
	}
	spent := time.Since(t0)
	docs, err := fetchDocs(c, logs)
	if err != nil {
		return 0, err
	}
	if err := verifyDocs(logs, docs, r.refs); err != nil {
		return 0, err
	}
	r.keyLogs(ts, logs)
	return spent, nil
}

// keyLogs records the keys of prepared templates, in template order.
func (r *run) keyLogs(ts []template, logs []prepLog) {
	keyOf := map[template]string{}
	for _, l := range logs {
		keyOf[l.tpl] = l.key
		r.byKey[l.key] = r.refs[l.tpl]
	}
	r.keys = r.keys[:0]
	for _, t := range ts {
		r.keys = append(r.keys, keyed{key: keyOf[t], ref: r.refs[t]})
	}
}

// timed runs one timed segment, adding the server's /stats delta over
// it to r.window.
func (r *run) timed(srv *server, seg func() error) error {
	c := newConn(srv.base)
	defer c.close()
	var before statsJS
	if err := c.getJSON("/stats", &before); err != nil {
		return err
	}
	if err := seg(); err != nil {
		return err
	}
	if err := c.getJSON("/stats", &r.last); err != nil {
		return err
	}
	r.window.addDelta(before, r.last)
	return nil
}

// mix runs connection A's single picks (with interleaved warm
// re-Prepares) and connection B's batches concurrently for d.
func (r *run) mix(e *runEnv, base string, choose chooser, d time.Duration) error {
	rngA, rngB := rand.New(rand.NewSource(e.rng.Int63())), rand.New(rand.NewSource(e.rng.Int63()))
	a, b := newConn(base), newConn(base)
	defer a.close()
	defer b.close()
	deadline := time.Now().Add(d)
	var errA error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errA = pickLoop(a, rngA, choose, deadline, &r.picks, &r.warm) }()
	go func() { defer wg.Done(); batchLoop(b, rngB, choose, batchPoints, deadline, &r.batches) }()
	wg.Wait()
	r.pickSpan += d
	return errA
}

// stop stops a round's server and records its peak memory.
func (r *run) stop(srv *server) {
	srv.stop()
	r.peakMB = append(r.peakMB, srv.peak)
}

func (r *run) verifyPicks() error {
	progress("verifying %d picks and %d batches", len(r.picks.logs), len(r.batches.logs))
	defer progress("verified")
	return verifyPicks(append(append([]pickLog(nil), r.picks.logs...), r.batches.logs...), r.byKey)
}

// prepareCold: one connection prepares the cold pool on a fresh default
// server per pass, in a new seeded order each time, so every Prepare is
// uncached. After each pass a probe measures the pick mix on that pass's
// plan sets, a share of the run's probe time.
func prepareCold(e *runEnv) (*run, error) {
	r := newRun()
	if err := r.references(e, coldPool); err != nil {
		return nil, err
	}
	r.flags = []string{"-cache-bytes", strconv.Itoa(unboundedCache)}
	passes := max(1, int(math.Ceil(e.window.Seconds()/coldPassSeconds)))
	for pass := 0; pass < passes; pass++ {
		srv, err := startServer(e.ctx, e.bin, r.flags)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, srv.ready.Seconds())
		if err := r.coldPass(e, srv, passes); err != nil {
			srv.stop()
			return nil, err
		}
		r.stop(srv)
	}
	progress("cold passes done")
	return r, r.verifyPicks()
}

func (r *run) coldPass(e *runEnv, srv *server, passes int) error {
	spent, err := r.prepareAll(e, srv, coldPool, &r.cold)
	if err != nil {
		return err
	}
	r.coldSpan += spent
	return r.timed(srv, func() error {
		return r.mix(e, srv.base, uniform(r.keys), e.probe/time.Duration(passes))
	})
}

// pickHot: per round, a server prepares five plan sets of 14–52
// candidates (the setup), then connection A picks and connection B
// batches on them for a quarter of the window, so the optimizer does no
// work in the timed segment. After each round a probe prepares the cold
// pool on a fresh server, once: the cold-Prepare samples.
func pickHot(e *runEnv) (*run, error) {
	r := newRun()
	if err := r.references(e, append(append([]template(nil), hotSet...), coldPool...)); err != nil {
		return nil, err
	}
	r.flags = []string{"-cache-bytes", strconv.Itoa(unboundedCache)}
	for i := 0; i < rounds; i++ {
		srv, err := startServer(e.ctx, e.bin, r.flags)
		if err != nil {
			return nil, err
		}
		if err := r.hotRound(e, srv); err != nil {
			srv.stop()
			return nil, err
		}
		r.stop(srv)
		if err := r.coldProbe(e); err != nil {
			return nil, err
		}
	}
	progress("rounds done")
	return r, r.verifyPicks()
}

func (r *run) hotRound(e *runEnv, srv *server) error {
	spent, err := r.prepareAll(e, srv, hotSet, new(series))
	if err != nil {
		return err
	}
	r.setup = append(r.setup, (srv.ready + spent).Seconds())
	return r.timed(srv, func() error { return r.mix(e, srv.base, uniform(r.keys), e.window/rounds) })
}

// coldProbe prepares the cold pool once, in a seeded order, on a fresh
// server. Five setup Prepares of fixed templates per round are too few
// for steady cold-Prepare metrics: their median is one template's
// median of a few samples. The probe gives pick-hot the same cold
// samples as a prepare-cold pass.
func (r *run) coldProbe(e *runEnv) error {
	srv, err := startServer(e.ctx, e.bin, r.flags)
	if err != nil {
		return err
	}
	defer srv.stop()
	spent, err := r.prepareAll(e, srv, coldPool, &r.cold)
	r.coldSpan += spent
	return err
}

var workloads = map[string]func(*runEnv) (*run, error){
	"prepare-cold": prepareCold,
	"pick-hot":     pickHot,
}
