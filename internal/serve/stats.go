package serve

import (
	"sync/atomic"
	"time"

	"mpq/internal/fleet"
	"mpq/internal/geometry"
)

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Prepares counts completed Prepare requests; PrepareHits the
	// subset served from the cache, PrepareDiskHits the documents
	// loaded from Options.Dir (Prepare restarts and pick-time reloads
	// alike).
	Prepares        int64
	PrepareHits     int64
	PrepareDiskHits int64
	// Picks counts completed pick *points*: one per Pick request plus
	// one per point of every PickBatch request (not one per batch).
	Picks int64
	// Rejected counts requests refused with ErrQueueFull.
	Rejected int64
	// Index reports the pick-index behavior (build work, cell shape,
	// and how many pick points the index served versus the linear-scan
	// fallback).
	Index IndexStats
	// Cache is the memory-accounted plan-set cache's accounting:
	// resident/admitted/evicted bytes and entries, re-admissions, pins.
	// Cache.ResidentEntries is the number of cached plan sets.
	// Admitted − evicted = resident at every quiescent point.
	Cache fleet.CacheStats
	// SharedHits counts documents served from Options.Shared (Prepare
	// hits and pick-time reloads); PeerHits those fetched from
	// Options.Peers; SharedPuts the documents this server published to
	// the shared store.
	SharedHits int64
	PeerHits   int64
	SharedPuts int64
	// Reloads counts evicted plan sets transparently reloaded at pick
	// time.
	Reloads int64
	// Cancellations counts requests that ended with context.Canceled
	// (the caller gave up); DeadlineExpiries those that ended with
	// context.DeadlineExceeded. Both are counted once per failed
	// Prepare/Pick/PickBatch call, at the API boundary.
	Cancellations    int64
	DeadlineExpiries int64
	// QuarantinedBlobs mirrors the shared store's corrupt-blob
	// quarantine counter; zero without a shared store. The peer
	// client's own counters (retries, breaker trips) are in
	// Options.Peers.Stats and on /metrics.
	QuarantinedBlobs int64
	// DonatedTasks counts idle-worker stints donated to in-flight
	// Prepares' split jobs (Options.DonateWorkers); DonatedMasks the
	// whole ready masks those stints planned (mask-level donation
	// raises the effective worker count of an in-flight optimization
	// mid-run).
	DonatedTasks int64
	DonatedMasks int64
	// Geometry aggregates the solver work of all pool workers.
	Geometry geometry.Stats
	// PipelineBusy sums the per-worker busy time inside the optimizer's
	// dependency scheduler across all Prepares that ran an optimization;
	// PipelineCapacity sums the corresponding scheduler wall-clock times
	// multiplied by the worker count each run used.
	PipelineBusy     time.Duration
	PipelineCapacity time.Duration
	// PipelineUtilization is PipelineBusy / PipelineCapacity: the mean
	// worker utilization of the optimizer's dependency scheduler over
	// all optimizations this server performed (1.0 = perfectly
	// pipelined; 0 when nothing was optimized yet).
	PipelineUtilization float64
	// SplitJobs counts table sets planned with intra-mask split
	// parallelism across all Prepares.
	SplitJobs int64
}

// IndexStats is the pick-index slice of the server counters.
type IndexStats struct {
	// IndexedPlanSets counts cached plan sets carrying a built index;
	// Leaves and LeafCandidates sum their leaf counts and per-leaf
	// candidate ids, AvgLeafCandidates is their ratio (candidates a
	// cell lookup scans on average, versus the full set for a linear
	// scan).
	IndexedPlanSets   int
	Leaves            int64
	LeafCandidates    int64
	AvgLeafCandidates float64
	// Builds counts index builds this server performed (documents
	// loaded with a persisted index stanza need none); BuildTime sums
	// their wall-clock durations.
	Builds    int64
	BuildTime time.Duration
	// IndexPicks counts pick points answered through a cell lookup;
	// FallbackPicks those answered by the full linear scan (index off,
	// no index on the set, or point outside the index box).
	IndexPicks    int64
	FallbackPicks int64
	// BatchRequests counts PickBatch requests; BatchPoints the points
	// they carried (each batch point is also counted in Stats.Picks).
	BatchRequests int64
	BatchPoints   int64
}

// pickCounters are the per-pick Stats counters, kept off mu because
// every pick bumps them; Stats copies them into its snapshot.
type pickCounters struct {
	points        atomic.Int64 // Stats.Picks
	index         atomic.Int64 // Stats.Index.IndexPicks
	fallback      atomic.Int64 // Stats.Index.FallbackPicks
	batchRequests atomic.Int64 // Stats.Index.BatchRequests
	batchPoints   atomic.Int64 // Stats.Index.BatchPoints
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	s.mu.RUnlock()
	st.Picks = s.picks.points.Load()
	st.Index.IndexPicks = s.picks.index.Load()
	st.Index.FallbackPicks = s.picks.fallback.Load()
	st.Index.BatchRequests = s.picks.batchRequests.Load()
	st.Index.BatchPoints = s.picks.batchPoints.Load()
	st.Cache = s.cache.Stats()
	if q, ok := s.opts.Shared.(interface{ Quarantined() int64 }); ok {
		st.QuarantinedBlobs = q.Quarantined()
	}
	if st.PipelineCapacity > 0 {
		st.PipelineUtilization = float64(st.PipelineBusy) / float64(st.PipelineCapacity)
		if st.PipelineUtilization > 1 {
			st.PipelineUtilization = 1
		}
	}
	s.cache.Range(func(_ string, v any) {
		e := v.(*entry)
		if e.idx == nil {
			return
		}
		st.Index.IndexedPlanSets++
		st.Index.Leaves += int64(e.idx.Leaves())
		st.Index.LeafCandidates += e.idx.LeafCandidateTotal()
	})
	if st.Index.Leaves > 0 {
		st.Index.AvgLeafCandidates = float64(st.Index.LeafCandidates) / float64(st.Index.Leaves)
	}
	return st
}
