package serve

import (
	"mpq/internal/fleet"
	"mpq/internal/obs"
)

// Metrics adapter: RegisterMetrics maps every field of Stats onto a
// typed metric of an obs.Registry, refreshed from one Stats snapshot
// per scrape through a collect hook — the server's request paths never
// know the registry exists. The mapping is a table (statMetrics) so a
// reflection test can prove it covers every Stats leaf field; adding a
// Stats field without a metric fails that test, which keeps /metrics
// and /stats answers reconcilable forever.
//
// Kind discipline: a Stats field that can decrease — gauges over the
// resident cache, the index aggregates recomputed from resident
// entries, the utilization ratio — must map to a gauge; everything
// monotonic maps to a counter, which the CI exposition lint verifies
// across scrapes.

// statMetric is one Stats field's metric binding.
type statMetric struct {
	field string // dotted Stats field path, e.g. "Cache.Hits"
	name  string
	help  string
	kind  obs.Kind
	get   func(*Stats) float64
}

// secs converts a nanosecond time.Duration-backed field to seconds.
func secs(ns int64) float64 { return float64(ns) / 1e9 }

// statMetrics binds every Stats leaf field (statsFieldCoverage in
// obs_test.go enforces the "every") to a metric name, kind, and getter.
var statMetrics = []statMetric{
	{"Prepares", "mpq_prepares_total", "Completed Prepare requests.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Prepares) }},
	{"PrepareHits", "mpq_prepare_hits_total", "Prepares served from the in-memory cache or a deduplicated flight.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.PrepareHits) }},
	{"PrepareDiskHits", "mpq_prepare_disk_hits_total", "Documents loaded from the persistence directory.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.PrepareDiskHits) }},
	{"Picks", "mpq_picks_total", "Completed pick points (one per Pick, one per PickBatch point).", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Picks) }},
	{"Rejected", "mpq_rejected_total", "Requests refused with a full queue (backpressure).", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Rejected) }},

	{"Index.IndexedPlanSets", "mpq_index_plan_sets", "Resident cached plan sets carrying a built pick index.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Index.IndexedPlanSets) }},
	{"Index.Leaves", "mpq_index_leaves", "Leaf cells across resident pick indexes.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Index.Leaves) }},
	{"Index.LeafCandidates", "mpq_index_leaf_candidates", "Per-leaf candidate ids across resident pick indexes.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Index.LeafCandidates) }},
	{"Index.AvgLeafCandidates", "mpq_index_avg_leaf_candidates", "Mean candidates a cell lookup scans (resident indexes).", obs.KindGauge,
		func(st *Stats) float64 { return st.Index.AvgLeafCandidates }},
	{"Index.Builds", "mpq_index_builds_total", "Pick-index builds performed by this server.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Index.Builds) }},
	{"Index.BuildTime", "mpq_index_build_seconds_total", "Wall-clock seconds spent building pick indexes.", obs.KindCounter,
		func(st *Stats) float64 { return secs(int64(st.Index.BuildTime)) }},
	{"Index.IndexPicks", "mpq_index_picks_total", "Pick points answered through an index cell lookup.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Index.IndexPicks) }},
	{"Index.FallbackPicks", "mpq_index_fallback_picks_total", "Pick points answered by the full linear candidate scan.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Index.FallbackPicks) }},
	{"Index.BatchRequests", "mpq_pick_batch_requests_total", "PickBatch requests.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Index.BatchRequests) }},
	{"Index.BatchPoints", "mpq_pick_batch_points_total", "Points carried by PickBatch requests.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Index.BatchPoints) }},

	{"Cache.ResidentEntries", "mpq_cache_resident_entries", "Entries resident in the memory-accounted cache.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Cache.ResidentEntries) }},
	{"Cache.ResidentBytes", "mpq_cache_resident_bytes", "Accounted bytes resident in the cache.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Cache.ResidentBytes) }},
	{"Cache.Admissions", "mpq_cache_admissions_total", "Entries accepted into the cache.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.Admissions) }},
	{"Cache.AdmittedBytes", "mpq_cache_admitted_bytes_total", "Accounted bytes of all cache admissions.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.AdmittedBytes) }},
	{"Cache.Evictions", "mpq_cache_evictions_total", "Entries evicted to respect the cache budget.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.Evictions) }},
	{"Cache.EvictedBytes", "mpq_cache_evicted_bytes_total", "Accounted bytes of all cache evictions.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.EvictedBytes) }},
	{"Cache.Readmissions", "mpq_cache_readmissions_total", "Cache admissions whose key had been admitted (and evicted) before.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.Readmissions) }},
	{"Cache.Hits", "mpq_cache_hits_total", "Cache Get hits.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.Hits) }},
	{"Cache.Misses", "mpq_cache_misses_total", "Cache Get misses.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cache.Misses) }},
	{"Cache.Pinned", "mpq_cache_pinned", "Cache entries currently pinned by in-flight requests.", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Cache.Pinned) }},
	{"Cache.CapBytes", "mpq_cache_cap_bytes", "Configured cache budget in bytes (0 = unbounded).", obs.KindGauge,
		func(st *Stats) float64 { return float64(st.Cache.CapBytes) }},

	{"SharedHits", "mpq_shared_hits_total", "Documents served from the shared store.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.SharedHits) }},
	{"PeerHits", "mpq_peer_hits_total", "Documents fetched from peers.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.PeerHits) }},
	{"SharedPuts", "mpq_shared_puts_total", "Documents this server published to the shared store.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.SharedPuts) }},
	{"Reloads", "mpq_reloads_total", "Evicted plan sets transparently reloaded at pick time.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Reloads) }},
	{"Cancellations", "mpq_cancellations_total", "Requests that ended with context.Canceled.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Cancellations) }},
	{"DeadlineExpiries", "mpq_deadline_expiries_total", "Requests that ended with context.DeadlineExceeded.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.DeadlineExpiries) }},
	{"QuarantinedBlobs", "mpq_quarantined_blobs_total", "Corrupt blobs quarantined by the shared store.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.QuarantinedBlobs) }},

	{"DonatedTasks", "mpq_donated_tasks_total", "Idle-worker stints donated to in-flight Prepares.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.DonatedTasks) }},
	{"DonatedMasks", "mpq_donated_masks_total", "Whole ready masks planned by donated worker stints.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.DonatedMasks) }},

	{"Geometry.LPs", "mpq_geometry_lps_total", "Linear programs solved by the pool's solvers.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Geometry.LPs) }},
	{"Geometry.LPIterations", "mpq_geometry_lp_iterations_total", "Simplex pivots across all LPs.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Geometry.LPIterations) }},
	{"Geometry.FastPathLPs", "mpq_geometry_fast_path_lps_total", "LPs resolved without running the simplex.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Geometry.FastPathLPs) }},
	{"Geometry.RegionDiffs", "mpq_geometry_region_diffs_total", "Region-difference computations.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Geometry.RegionDiffs) }},
	{"Geometry.ConvexityChecks", "mpq_geometry_convexity_checks_total", "Union-convexity recognitions.", obs.KindCounter,
		func(st *Stats) float64 { return float64(st.Geometry.ConvexityChecks) }},

	{"PipelineBusy", "mpq_pipeline_busy_seconds_total", "Per-worker busy seconds inside the optimizer's dependency scheduler.", obs.KindCounter,
		func(st *Stats) float64 { return secs(int64(st.PipelineBusy)) }},
	{"PipelineCapacity", "mpq_pipeline_capacity_seconds_total", "Scheduler wall-clock seconds times the worker count, summed over optimizations.", obs.KindCounter,
		func(st *Stats) float64 { return secs(int64(st.PipelineCapacity)) }},
	{"PipelineUtilization", "mpq_pipeline_utilization", "Mean worker utilization of the optimizer's dependency scheduler (0..1).", obs.KindGauge,
		func(st *Stats) float64 { return st.PipelineUtilization }},
}

// RegisterMetrics exposes the server's counters on reg in Prometheus
// form: every Stats field, plus (when configured) the peer client's
// counters. Each scrape takes one Stats snapshot — the same
// one GET /stats serves — so the two surfaces can never drift.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	type binding struct {
		set func(float64)
		get func(*Stats) float64
	}
	bindings := make([]binding, 0, len(statMetrics))
	for _, m := range statMetrics {
		switch m.kind {
		case obs.KindCounter:
			c := reg.Counter(m.name, m.help)
			bindings = append(bindings, binding{c.SetTotal, m.get})
		default:
			g := reg.Gauge(m.name, m.help)
			bindings = append(bindings, binding{g.Set, m.get})
		}
	}
	var peer struct {
		fetches, fetchHits, errors, retries, trips, skips, corrupt *obs.Counter
	}
	if s.opts.Peers != nil {
		peer.fetches = reg.Counter("mpq_peer_fetches_total", "Peer fetch attempts (fleet.PeerClient).")
		peer.fetchHits = reg.Counter("mpq_peer_fetch_hits_total", "Peer fetches answered by some peer.")
		peer.errors = reg.Counter("mpq_peer_errors_total", "Per-peer request failures after retries.")
		peer.retries = reg.Counter("mpq_peer_retries_total", "Re-attempts of failed peer requests.")
		peer.trips = reg.Counter("mpq_peer_breaker_trips_total", "Peer circuit-breaker closed-to-open transitions.")
		peer.skips = reg.Counter("mpq_peer_breaker_skips_total", "Peer requests not sent because a breaker was open.")
		peer.corrupt = reg.Counter("mpq_peer_corrupt_total", "Peer responses rejected by integrity validation.")
	}
	reg.OnCollect(func() {
		st := s.Stats()
		for _, b := range bindings {
			b.set(b.get(&st))
		}
		if s.opts.Peers != nil {
			ps := s.opts.Peers.Stats()
			peer.fetches.SetTotal(float64(ps.Fetches))
			peer.fetchHits.SetTotal(float64(ps.Hits))
			peer.errors.SetTotal(float64(ps.Errors))
			peer.retries.SetTotal(float64(ps.Retries))
			peer.trips.SetTotal(float64(ps.BreakerTrips))
			peer.skips.SetTotal(float64(ps.BreakerSkips))
			peer.corrupt.SetTotal(float64(ps.Corrupt))
			// Per-peer breaker children register idempotently per URL, so
			// the hook may re-register them every scrape.
			for _, pi := range ps.Peers {
				l := obs.Label{Name: "peer", Value: pi.URL}
				reg.Gauge("mpq_peer_breaker_state",
					"Circuit-breaker state per peer (0 closed, 1 half-open, 2 open).", l).
					Set(breakerStateValue(pi.State))
				reg.Gauge("mpq_peer_consecutive_failures",
					"Consecutive failures since the peer's last success.", l).
					Set(float64(pi.Failures))
			}
		}
	})
}

// breakerStateValue encodes a breaker state as a gauge level: the
// healthy state is 0 so dashboards can alert on anything non-zero.
func breakerStateValue(st fleet.PeerState) float64 {
	switch st {
	case fleet.PeerHalfOpen:
		return 1
	case fleet.PeerOpen:
		return 2
	}
	return 0
}
