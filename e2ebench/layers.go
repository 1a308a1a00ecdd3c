package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/store"
)

// layerRun is the outcome of a traced run.
type layerRun struct {
	metrics           []metric
	flags             []string
	attempted, failed int
}

// workloadTemplates is the template list a workload prepares in setup or
// per pass; the traced run prepares it in-process once.
func workloadTemplates(name string) []template {
	if name == "prepare-cold" {
		return coldPool
	}
	return hotSet
}

// traceRun runs the workload end to end (tracing off), then replays its
// inputs in-process with every layer timed from the outside: the
// optimizer with an observed algebra and cost model on one worker, index
// build, store encode and decode, an in-process serve.Server mirroring
// the measured server, the pick index and the selection policies.
// Optimizer time sums over the workload's template list (one pass);
// pick-path times are per pick.
func traceRun(e *runEnv, wl func(*runEnv) (*run, error), dir, name string, seed int64) (*layerRun, error) {
	r, err := wl(e)
	if err != nil {
		return nil, err
	}
	progress("end-to-end part done")
	_, attempted, bad := failedShare(&r.cold, &r.warm, &r.picks.lat, &r.batches.lat)
	out := &layerRun{flags: r.flags, attempted: attempted, failed: bad}
	add := func(name string, v float64, unit string) {
		out.metrics = append(out.metrics, metric{Name: name, Value: v, Unit: unit})
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ts := workloadTemplates(name)
	tr := newTracer()

	// Optimizer layers. Each template runs unobserved, then observed, so
	// drift between the two stays small; their outputs must be identical.
	var plain, observed time.Duration
	var created, pruned, final int
	var geo geometry.Stats
	var docBytes, plans int
	refs := make([]*reference, len(ts))
	for i, t := range ts {
		// Alternate which run goes first, so warm-up favours neither.
		var base, ref *reference
		var err error
		if i%2 == 1 {
			if base, err = computeReference(e.ctx, t, nil, -1); err != nil {
				return nil, err
			}
		}
		root := tr.begin("prepare", -1)
		if ref, err = computeReference(e.ctx, t, tr, root); err != nil {
			return nil, err
		}
		if i%2 == 0 {
			if base, err = computeReference(e.ctx, t, nil, -1); err != nil {
				return nil, err
			}
		}
		sp := tr.begin("store.decode", root)
		_, err = store.Load(bytes.NewReader(ref.doc))
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if err := samePassive(base, ref); err != nil {
			return nil, err
		}
		refs[i] = ref
		plain += base.optimize
		observed += ref.optimize
		st := ref.stats
		created, pruned, final = created+st.CreatedPlans, pruned+st.PrunedPlans, final+st.FinalPlans
		geo.Add(st.Geometry)
		docBytes += len(ref.doc)
		plans += len(ref.plans)
	}
	optimize, _ := tr.byName("core.optimize")
	dom, domCalls := tr.byName("pwl.dom")
	acc, accCalls := tr.byName("pwl.accumulate")
	alt, altCalls := tr.byName("cloud.alternatives")
	residual := tr.selfByName("core.optimize")
	build, _ := tr.byName("index.build")
	encode, _ := tr.byName("store.encode")
	decode, _ := tr.byName("store.decode")
	overhead := (observed.Seconds() - plain.Seconds()) / plain.Seconds()
	fmt.Printf("accounting: pwl %.1f + cloud %.1f + residual %.1f = %.1f ms (observed optimize); unobserved optimize %.1f ms; tracing overhead %.2f%%\n",
		ms(dom+acc), ms(alt), ms(residual), ms(dom+acc+alt+residual), ms(plain), 100*overhead)

	add("core.optimize_ms", ms(optimize), "ms")
	add("core.created_plans", float64(created), "count")
	add("core.pruned_plans", float64(pruned), "count")
	add("core.final_plans", float64(final), "count")
	add("core.final_per_created", float64(final)/float64(created), "ratio")
	add("core.region_residual_ms", ms(residual), "ms")
	add("pwl.dom_ms", ms(dom), "ms")
	add("pwl.dom_calls", float64(domCalls), "count")
	add("pwl.dom_us_per_call", float64(dom)/1e3/float64(max(domCalls, 1)), "us")
	add("pwl.accumulate_ms", ms(acc), "ms")
	add("pwl.accumulate_calls", float64(accCalls), "count")
	add("geometry.lps", float64(geo.LPs), "count")
	add("geometry.pivots", float64(geo.LPIterations), "count")
	add("geometry.pivots_per_lp", float64(geo.LPIterations)/float64(max(geo.LPs, 1)), "ratio")
	add("geometry.fast_path_lps", float64(geo.FastPathLPs), "count")
	add("geometry.fast_path_share", float64(geo.FastPathLPs)/float64(max(geo.LPs, 1)), "ratio")
	add("geometry.region_diffs", float64(geo.RegionDiffs), "count")
	add("geometry.convexity_checks", float64(geo.ConvexityChecks), "count")
	add("cloud.alternatives_ms", ms(alt), "ms")
	add("cloud.alternatives_calls", float64(altCalls), "count")

	var leaves, leafCands int64
	for _, ref := range refs {
		leaves += int64(ref.ix.Leaves())
		leafCands += ref.ix.LeafCandidateTotal()
	}
	add("index.build_ms", ms(build), "ms")
	add("index.leaves", float64(leaves), "count")
	add("index.avg_leaf_candidates", float64(leafCands)/float64(max(leaves, 1)), "count")
	add("store.encode_ms", ms(encode), "ms")
	add("store.decode_ms", ms(decode), "ms")
	add("store.doc_bytes", float64(docBytes), "bytes")
	add("store.bytes_per_plan", float64(docBytes)/float64(plans), "bytes")

	progress("optimizer layers done")
	// Serving layer, in-process, configured like the measured server.
	sv, err := serveLayer(e, r, ts, tr)
	if err != nil {
		return nil, err
	}
	add("serve.prepare_ms", ms(sv.prepare), "ms")
	add("serve.prepare_overhead_ms", ms(sv.prepare-sv.optimize-sv.build-encode), "ms")
	add("serve.pick_us_p50", 1e6*sv.pickP50, "us")
	add("serve.pickbatch_us_per_point", 1e6*sv.batchPerPoint, "us")
	add("serve.reload_pick_ms", 1e3*sv.reloadP50, "ms")
	d := r.window
	add("serve.index_pick_share", float64(d.Index.IndexPicks)/float64(max(d.Index.IndexPicks+d.Index.FallbackPicks, 1)), "ratio")

	// Transport: what the HTTP round trip adds to the in-process call.
	add("mpqserve.pick_overhead_us", 1e6*(median(r.picks.lat.lat)-sv.pickP50), "us")
	add("mpqserve.pickbatch_overhead_us_per_point", 1e6*(median(r.batches.perPoint)-sv.batchPerPoint), "us")
	add("mpqserve.response_bytes_per_pick", float64(r.picks.respBytes)/float64(max(len(r.picks.logs), 1)), "bytes")

	progress("serving layer done")
	locate, leafSel, linearSel := pickLayers(r, tr)
	add("index.locate_ns", locate, "ns")
	add("selection.leaf_ns", leafSel, "ns")
	add("selection.linear_ns", linearSel, "ns")

	add("fleet.evictions", float64(d.Cache.Evictions), "count")
	add("fleet.reloads", float64(d.Reloads), "count")
	add("fleet.cache_hit_share", float64(d.Cache.Hits)/float64(max(d.Cache.Hits+d.Cache.Misses, 1)), "ratio")
	add("fleet.resident_bytes", float64(r.last.Cache.ResidentBytes), "bytes")
	add("trace.overhead_share", overhead, "ratio")

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return out, nil
}

// samePassive is the passive-instrument check: the observed run must
// save the same bytes and do the same geometry and plan work as the
// unobserved one.
func samePassive(base, obs *reference) error {
	switch {
	case !bytes.Equal(base.doc, obs.doc):
		return fmt.Errorf("%v: the observed optimizer saved different bytes", base.tpl)
	case base.stats.Geometry != obs.stats.Geometry:
		return fmt.Errorf("%v: geometry stats differ under observation: %v vs %v", base.tpl, base.stats.Geometry, obs.stats.Geometry)
	case base.stats.CreatedPlans != obs.stats.CreatedPlans:
		return fmt.Errorf("%v: created plans %d then %d: counts must repeat exactly", base.tpl, base.stats.CreatedPlans, obs.stats.CreatedPlans)
	}
	return nil
}

// serveTimes are the in-process serving-layer measurements.
type serveTimes struct {
	prepare, optimize, build time.Duration // sums over the template list
	pickP50, batchPerPoint   float64       // seconds
	reloadP50                float64       // seconds
}

// serveLayer prepares ts on an in-process serve.Server configured like
// the measured mpqserve, replays the run's logged picks and batches on
// it, and times picks on a second server whose cache is below one
// document, so every pick reloads from its directory.
func serveLayer(e *runEnv, r *run, ts []template, tr *tracer) (*serveTimes, error) {
	var st serveTimes
	s := serve.New(serve.Options{Index: true, DonateWorkers: true, CacheBytes: unboundedCache})
	defer s.Close()
	for _, t := range ts {
		cfg, err := t.config()
		if err != nil {
			return nil, err
		}
		sp := tr.begin("serve.prepare", -1)
		t0 := time.Now()
		res, err := s.Prepare(e.ctx, serve.Template{Workload: cfg})
		st.prepare += time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if r.byKey[res.Key] == nil {
			return nil, fmt.Errorf("%v: in-process key %s was not served by mpqserve", t, res.Key)
		}
		st.optimize += res.Duration
	}
	st.build = s.Stats().Index.BuildTime
	progress("serve prepares done")

	root := tr.begin("serve.replay", -1)
	var picks []float64
	var pickTotal time.Duration
	for _, l := range r.picks.logs {
		t0 := time.Now()
		_, err := s.Pick(e.ctx, serveRequest(l.req))
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		picks = append(picks, d.Seconds())
		pickTotal += d
	}
	tr.aggregateCalls("serve.pick", root, int64(len(picks)), pickTotal)
	var perPoint []float64
	var batchTotal time.Duration
	for _, l := range r.batches.logs {
		req := serveRequest(l.req)
		t0 := time.Now()
		_, err := s.PickBatch(e.ctx, serve.PickBatchRequest{Key: req.Key, Points: toVectors(l.req.Points),
			Policy: req.Policy, Weights: req.Weights, Minimize: req.Minimize, Bounds: req.Bounds, Order: req.Order})
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		perPoint = append(perPoint, d.Seconds()/float64(len(l.req.Points)))
		batchTotal += d
	}
	tr.aggregateCalls("serve.pickbatch", root, int64(len(perPoint)), batchTotal)
	tr.end(root)
	st.pickP50, st.batchPerPoint = median(picks), median(perPoint)

	progress("serve replay done")
	reload, err := reloadPicks(e.ctx, e.work, r, ts, tr)
	if err != nil {
		return nil, err
	}
	st.reloadP50 = reload
	return &st, nil
}

// reloadPicksN is how many picks reloadPicks times.
const reloadPicksN = 96

// reloadPicks writes the workload's documents into a directory and
// times picks on a server whose cache budget is one byte: every pick
// loads its plan set from the directory first.
func reloadPicks(ctx context.Context, work string, r *run, ts []template, tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(work, "reload-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s := serve.New(serve.Options{Index: true, Dir: dir, CacheBytes: 1})
	defer s.Close()
	for _, t := range ts {
		cfg, err := t.config()
		if err != nil {
			return 0, err
		}
		key, err := s.Key(serve.Template{Workload: cfg})
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), r.refs[t].doc, 0o644); err != nil {
			return 0, err
		}
	}
	root := tr.begin("serve.reload", -1)
	var lat []float64
	var total time.Duration
	prev := ""
	for _, l := range r.picks.logs {
		if len(lat) == reloadPicksN {
			break
		}
		if l.req.Key == prev {
			continue // the one resident entry would answer it
		}
		prev = l.req.Key
		req := serveRequest(l.req)
		t0 := time.Now()
		_, err := s.Pick(ctx, req)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		lat = append(lat, d.Seconds())
		total += d
	}
	tr.aggregateCalls("serve.reload_pick", root, int64(len(lat)), total)
	tr.end(root)
	if got := s.Stats().Reloads; got < int64(len(lat)) {
		return 0, fmt.Errorf("reload server reloaded %d times for %d picks", got, len(lat))
	}
	return median(lat), nil
}

func serveRequest(r pickReq) serve.PickRequest {
	req := serve.PickRequest{Key: r.Key, Point: r.Point, Policy: serve.Policy(r.Policy),
		Weights: r.Weights, Minimize: r.Minimize, Order: r.Order}
	for _, b := range r.Bounds {
		req.Bounds = append(req.Bounds, selection.Bound{Metric: b.Metric, Max: b.Max})
	}
	return req
}

func toVectors(ps [][]float64) []geometry.Vector {
	out := make([]geometry.Vector, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// pickLayers times the pick path's layers over the run's logged single
// picks: index.Locate per point, then the request's policy over the
// located leaf's candidates and over the full candidate list. Each is a
// tight loop over all picks; the results are nanoseconds per pick.
func pickLayers(r *run, tr *tracer) (locateNs, leafNs, linearNs float64) {
	type located struct {
		l     pickLog
		ref   *reference
		cands []selection.Candidate
	}
	leafSets := map[*reference][][]selection.Candidate{}
	var ps []located
	for _, l := range r.picks.logs {
		ref := r.byKey[l.req.Key]
		if leafSets[ref] == nil {
			leafSets[ref] = ref.ix.LeafCandidates(ref.cands)
		}
		ps = append(ps, located{l: l, ref: ref})
	}
	if len(ps) == 0 {
		return 0, 0, 0
	}
	root := tr.begin("pick.layers", -1)
	t0 := time.Now()
	for i := range ps {
		leaf, _, ok := ps[i].ref.ix.Locate(ps[i].l.req.Point)
		ps[i].cands = ps[i].ref.cands
		if ok {
			ps[i].cands = leafSets[ps[i].ref][leaf]
		}
	}
	locate := time.Since(t0)
	t0 = time.Now()
	for _, p := range ps {
		choose(p.cands, p.l.req, p.l.req.Point)
	}
	leaf := time.Since(t0)
	t0 = time.Now()
	for _, p := range ps {
		choose(p.ref.cands, p.l.req, p.l.req.Point)
	}
	linear := time.Since(t0)
	n := int64(len(ps))
	tr.aggregateCalls("index.locate", root, n, locate)
	tr.aggregateCalls("selection.leaf", root, n, leaf)
	tr.aggregateCalls("selection.linear", root, n, linear)
	tr.end(root)
	per := func(d time.Duration) float64 { return float64(d) / float64(n) }
	return per(locate), per(leaf), per(linear)
}
