// Package mpq is a Go implementation of Multi-Objective Parametric
// Query Optimization (MPQ) as introduced by Trummer and Koch (VLDB
// 2014): query optimization where plans are compared according to
// multiple cost metrics (e.g. execution time and monetary fees) and
// plan costs are functions of parameters unknown at optimization time
// (e.g. predicate selectivities).
//
// The optimizer produces a Pareto plan set: for every possible plan p
// and every point x of the parameter space, the set contains a plan
// that is at least as good as p at x on every metric. At run time, when
// parameter values and user preferences are known, the final plan is
// selected from the precomputed set without further optimization.
//
// # Quick start
//
//	schema, _ := mpq.GenerateWorkload(mpq.WorkloadConfig{
//		Tables: 4, Params: 1, Shape: mpq.Chain, Seed: 1,
//	})
//	ctx := mpq.NewSolver(mpq.SolverConfig{})
//	model, _ := mpq.NewCloudModel(schema, mpq.DefaultCloudConfig(), ctx)
//	opts := mpq.DefaultOptions()
//	opts.Context = ctx
//	result, _ := mpq.Optimize(schema, model, opts)
//	for _, info := range result.Plans {
//		fmt.Println(info.Plan)
//	}
//
// The core algorithm is the Relevance Region Pruning Algorithm (RRPA):
// dynamic programming over table sets where every plan carries a
// relevance region — the part of the parameter space for which no
// known alternative dominates it. Plans whose relevance region becomes
// empty are pruned. The PWL specialization (PWL-RRPA) represents cost
// functions as piecewise-linear functions over convex polytopes and
// implements all pruning geometry with small linear programs.
//
// # Parallelism
//
// With Options.Workers > 1 the dynamic program runs on a pipelined
// dependency scheduler over a cardinality-sharded plan-set store: a
// table set is planned the moment every strict subset it decomposes
// into has completed, and wide table sets are split across workers
// with an order-preserving reduction (see DESIGN.md, "Concurrency
// model"). Plan sets and aggregate LP statistics are identical for
// every worker count; Stats.Scheduler and Stats.PipelineUtilization
// report how well the pipeline kept the pool busy.
//
// # Serving
//
// The optimizer also runs as a long-lived service (NewServer, and the
// cmd/mpqserve binary): Prepare optimizes a query template once,
// persists the Pareto plan set through the store format and caches it
// under a schema+cost-model+configuration hash; Pick selects a plan
// for concrete parameter values and a preference policy against the
// cached set. The geometry layer is reentrant (shared immutable
// configuration, per-worker solvers), so one server handles many
// concurrent requests. ServeStats exposes, next to the request and
// cache counters, the optimizer pipeline's behavior across all
// Prepares: PipelineBusy/PipelineCapacity/PipelineUtilization (mean
// worker utilization of the dependency scheduler) and SplitJobs
// (table sets planned with intra-mask split parallelism).
//
// With ServeOptions.Index, Prepare additionally builds a
// point-location pick index over the plan set's parameter space (a
// kd-tree style cell decomposition, persisted with the plan set as the
// store's v3 index stanza) so each pick scans only the candidates
// relevant in the query point's cell — byte-identical to the full
// linear scan, which remains the verified fallback. High pick rates
// batch through PickBatch, which sorts the points into index cells and
// answers them in request order:
//
//	srv := mpq.NewServer(mpq.ServeOptions{Workers: 4, Index: true})
//	defer srv.Close()
//	prep, _ := srv.Prepare(context.Background(), mpq.ServeTemplate{
//		Workload: mpq.WorkloadConfig{
//			Tables: 6, Params: 2, Shape: mpq.Clique, Seed: 7,
//		}})
//	res, _ := srv.PickBatch(context.Background(), mpq.PickBatchRequest{
//		Key:     prep.Key,
//		Points:  []mpq.Vector{{0.2, 0.4}, {0.5, 0.5}, {0.8, 0.1}},
//		Policy:  mpq.PolicyWeightedSum,
//		Weights: []float64{1, 10000},
//	})
//	for i, choices := range res.Choices {
//		fmt.Println(i, choices[0].Plan, choices[0].Cost)
//	}
//
// ServeStats.Index reports the index behavior: leaves and average
// candidates per leaf, build time, picks served by cell lookup versus
// the linear fallback, and batch request/point counts (Stats.Picks
// counts batch picks per point).
//
// # Approximate frontiers
//
// Options.Epsilon > 0 turns the exact Pareto set into an ε-approximate
// frontier: every plan the optimizer drops is guaranteed to be within
// a (1+ε) cost factor of a kept plan, on every metric, everywhere in
// the parameter space. Coarse factors usually keep fewer plans, so the
// stored plan set is smaller and every pick scans fewer candidates;
// the admission gate's own LPs can make an ε Prepare cost more than
// the exact one (DESIGN.md records the measurements). ε = 0 (the
// default) is bit-identical to the historical exact path, and results
// are deterministic for every worker count at every ε.
//
// The factor is part of the serving cache key, so one server answers
// exact and approximate tiers of the same template side by side, each
// from its own plan set:
//
//	srv := mpq.NewServer(mpq.ServeOptions{Workers: 4})
//	defer srv.Close()
//	tpl := mpq.ServeTemplate{Workload: mpq.WorkloadConfig{
//		Tables: 6, Params: 2, Shape: mpq.Clique, Seed: 7,
//	}}
//	exact, _ := srv.Prepare(context.Background(), tpl) // full Pareto set
//	eps := 0.05
//	tpl.Epsilon = &eps
//	approx, _ := srv.Prepare(context.Background(), tpl) // ≤ 5% regret tier
//	fmt.Println(exact.Key != approx.Key)                // true: distinct tiers
//	fmt.Println(exact.Epsilon, approx.Epsilon)          // 0 0.05
//
// Prepare, Pick and PickBatch results carry the Epsilon of the plan set
// that answered.
//
// The bench harness certifies the contract empirically (mpqbench
// -epsilon measures the realized max regret and the plan-set and LP
// savings per factor), and the CI baseline gates ε > 0 cases on the
// certified regret rather than on exact counts. See DESIGN.md,
// "ε-approximate frontiers".
//
// # Fleet serving
//
// A fleet of servers shares preparations through a shared plan-set
// store (ServeOptions.Shared): every prepared document is published
// under its cache key, and a sibling server consults the store — and,
// with ServeOptions.Peers, other servers over HTTP — before
// optimizing, so each template is computed once per fleet. The
// in-memory cache is bounded by ServeOptions.CacheBytes (size-aware
// LRU; evicted plan sets reload transparently at pick time). Two
// servers over one shared directory:
//
//	shared, _ := mpq.NewSharedDirStore("/var/lib/mpq/plansets")
//	a := mpq.NewServer(mpq.ServeOptions{Workers: 4, Index: true, Shared: shared})
//	defer a.Close()
//	b := mpq.NewServer(mpq.ServeOptions{Workers: 4, Index: true, Shared: shared,
//		CacheBytes: 256 << 20})
//	defer b.Close()
//	tpl := mpq.ServeTemplate{Workload: mpq.WorkloadConfig{
//		Tables: 6, Params: 2, Shape: mpq.Clique, Seed: 7,
//	}}
//	prepA, _ := a.Prepare(context.Background(), tpl) // optimizes, publishes
//	prepB, _ := b.Prepare(context.Background(), tpl) // from the store
//	fmt.Println(prepA.Key == prepB.Key, prepB.Cached,
//		b.Stats().SharedHits) // true true 1
//
// Pick results are byte-identical whichever way the plan set arrived
// (computed, loaded from the shared dir, or fetched from a peer), and
// Close flushes the store on the way out. ServeStats exposes the fleet
// counters: Cache (admitted − evicted = resident), SharedHits,
// PeerHits, SharedPuts, Reloads and DonatedTasks. See
// DESIGN.md, "Fleet serving".
//
// # Failure domains
//
// Every serving entry point takes a context: a cancelled or expired
// request is abandoned at the next cooperative checkpoint — before its
// job runs, between scheduler tasks mid-optimization — releasing its
// worker and singleflight key without disturbing
// concurrent requests for the same template (they retry the flight).
// Cancellation is passive, so a run that is never cancelled stays
// byte-identical to an unbounded one. A deadline-bounded Prepare
// composes with the fleet sources: bound the expensive first
// optimization, and fall back to whatever a peer has already
// published —
//
//	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
//	defer cancel()
//	prep, err := b.Prepare(ctx, tpl)
//	if errors.Is(err, context.DeadlineExceeded) {
//		// Too expensive to compute in time. A sibling may have finished
//		// it meanwhile: this retry is admitted to the shared-store and
//		// peer-fetch sources (cheap) and only recomputes if all miss.
//		prep, err = b.Prepare(context.Background(), tpl)
//	}
//
// Peer fetches retry transient failures with jittered exponential
// backoff behind a per-peer circuit breaker (PeerOptions), and every
// response is validated — size limit, content hash, document probe —
// so a corrupt peer response degrades to a counted miss, never a
// poisoned cache entry. The on-disk stores write through fsync'd
// temp-file-plus-rename; a blob that disagrees with its manifest is
// quarantined and recomputed. ServeStats counts the server's failure
// kinds (Cancellations, DeadlineExpiries, QuarantinedBlobs) and
// PeerStats the peer client's (Retries, BreakerTrips); /metrics
// exports both. See DESIGN.md, "Failure domains".
//
// # Observability
//
// A running mpqserve is scrapable: every ServeStats field is exported
// in the Prometheus text format on GET /metrics (internal/obs, a
// zero-dependency registry), Prepare flights are traced per phase
// (queue wait, lookup, optimize, index build, save)
// into a bounded ring served as histograms and as JSON on
// GET /debug/traces. Scraping a server:
//
//	mpqserve -addr :8080 &
//	curl -s localhost:8080/metrics | grep -E 'mpq_(prepares|picks)_total'
//	curl -s localhost:8080/debug/traces | jq '.events[0].phases'
//
// -metrics-addr moves the scrape and debug endpoints (including
// opt-in -pprof profiling) to a dedicated listener; -log emits a
// JSON-lines access log on stderr. See DESIGN.md, "Observability".
//
// # Enforced invariants
//
// The determinism, context-flow, atomic-discipline, and float-epsilon
// contracts above are enforced at compile time by the repo's own
// go/analysis suite: `go run ./cmd/mpqlint ./...` must exit clean, and
// CI keeps it that way. Deliberate waivers are annotated in place with
// `//mpq:<kind> <reason>` directives. See DESIGN.md, "Static analysis
// & enforced invariants", and the analyzers under internal/analysis.
//
// The subpackages under internal implement the machinery: geometry
// (polytopes, simplex LP solver, region difference, convexity
// recognition), pwl (piecewise-linear cost functions), region
// (relevance regions), catalog/workload (schemas and random query
// generation), cloud (the time/fees cost model of the paper's
// evaluation), core (the optimizer), baseline (comparison algorithms
// and exhaustive ground truth), sampled (a non-PWL cost algebra for
// the generic algorithm), store (the versioned plan-set serialization
// format), selection (run-time plan selection policies), serve (the
// optimizer-as-a-service layer), fleet (the memory-bounded cache,
// shared plan-set store and peer fetches behind fleet serving), obs (the metrics registry, exposition
// parser/linter and Prepare trace ring) and
// bench (the Figure 12 experiment harness with its CI regression
// gate).
package mpq
