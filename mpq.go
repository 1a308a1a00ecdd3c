package mpq

import (
	"context"
	"io"
	"time"

	"mpq/internal/baseline"
	"mpq/internal/bench"
	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/diagram"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/sampled"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// Schema and statistics types.
type (
	// Schema describes a query: tables, predicates, join edges, and the
	// parameter space of unspecified selectivities.
	Schema = catalog.Schema
	// Table is a base table with cardinality and optional predicate.
	Table = catalog.Table
	// Predicate is an equality predicate with constant or parametric
	// selectivity.
	Predicate = catalog.Predicate
	// JoinEdge is a join predicate between two tables.
	JoinEdge = catalog.JoinEdge
	// TableID identifies a table within a schema.
	TableID = catalog.TableID
	// TableSet is a bitmask set of tables.
	TableSet = catalog.TableSet
)

// Geometry types.
type (
	// Vector is a point of the parameter space or a cost vector.
	Vector = geometry.Vector
	// Polytope is a convex polytope in H-representation.
	Polytope = geometry.Polytope
	// Halfspace is a linear inequality W·x <= B.
	Halfspace = geometry.Halfspace
	// Solver performs geometric operations for one worker: shared
	// immutable SolverConfig plus per-worker scratch buffers and Stats.
	// Fork one per goroutine; see Options.Workers.
	Solver = geometry.Solver
	// SolverConfig is the immutable numeric configuration (tolerances,
	// iteration caps) shared by concurrent solvers.
	SolverConfig = geometry.Config
	// GeometryStats counts geometric work (solved LPs, simplex pivots).
	GeometryStats = geometry.Stats
)

// Piecewise-linear cost function types.
type (
	// PWLFunction is a single-objective piecewise-linear cost function.
	PWLFunction = pwl.Function
	// PWLMulti is a multi-objective piecewise-linear cost function.
	PWLMulti = pwl.Multi
	// PWLPiece is a linear piece of a PWL function.
	PWLPiece = pwl.Piece
)

// Optimizer types.
type (
	// Options configures an optimizer run.
	Options = core.Options
	// Result is a Pareto plan set with statistics.
	Result = core.Result
	// PlanInfo is a plan with cost function and relevance region.
	PlanInfo = core.PlanInfo
	// Stats summarizes optimizer work (plans created, LPs solved, ...).
	Stats = core.Stats
	// CostModel supplies operator alternatives with parametric costs.
	CostModel = core.CostModel
	// Alternative pairs an operator with its cost.
	Alternative = core.Alternative
	// Cost is an opaque cost function handled by an Algebra.
	Cost = core.Cost
	// Algebra abstracts cost operations, making RRPA generic.
	Algebra = core.Algebra
	// EpsilonAlgebra extends Algebra with the scaled dominance regions
	// the ε-approximate prune needs (Options.Epsilon > 0). PWLAlgebra
	// implements it.
	EpsilonAlgebra = core.EpsilonAlgebra
	// PWLAlgebra is the exact algebra for PWL cost functions
	// (PWL-RRPA).
	PWLAlgebra = core.PWLAlgebra
	// StaticModel is a cost model listing explicit plan alternatives.
	StaticModel = core.StaticModel
	// Plan is a query plan operator tree.
	Plan = plan.Node
	// RelevanceRegion is the parameter-space region for which a plan is
	// relevant.
	RelevanceRegion = region.Region
	// RegionOptions configures relevance-region refinements.
	RegionOptions = region.Options
)

// Cloud cost model types.
type (
	// CloudModel is the time/fees cost model of the paper's evaluation.
	CloudModel = cloud.Model
	// CloudConfig describes the simulated cluster and pricing.
	CloudConfig = cloud.Config
)

// Workload generation types.
type (
	// WorkloadConfig controls random query generation.
	WorkloadConfig = workload.Config
	// Shape is the join graph shape.
	Shape = workload.Shape
	// BenchConfig controls the Figure 12 experiment harness.
	BenchConfig = bench.Config
	// BenchSeries is one measured curve of the experiment.
	BenchSeries = bench.Series
	// SampledCost is an arbitrary cost closure for the generic
	// (non-PWL) algebra.
	SampledCost = sampled.Cost
	// SampledAlgebra under-approximates dominance by sampling.
	SampledAlgebra = sampled.Algebra
)

// Join graph shapes.
const (
	Chain  = workload.Chain
	Star   = workload.Star
	Cycle  = workload.Cycle
	Clique = workload.Clique
)

// Relevance-region emptiness strategies.
const (
	// StrategyBemporad is the paper's Algorithm 2 emptiness check via
	// convexity recognition of the cutout union.
	StrategyBemporad = region.StrategyBemporad
	// StrategyCoverDiff checks cutout coverage via region difference.
	StrategyCoverDiff = region.StrategyCoverDiff
)

// Optimize runs RRPA / PWL-RRPA and returns a Pareto plan set for the
// query (Algorithm 1 of the paper). Options.Workers selects the number
// of goroutines pulling runnable table sets from the pipelined
// dependency scheduler (0 = GOMAXPROCS, 1 = the caller's goroutine
// only); results and aggregate LP statistics are identical for every
// worker count.
// Options.Epsilon > 0 trades precision for speed: the returned set is
// an ε-approximate Pareto frontier — every dropped plan is within a
// (1+ε) cost factor of a kept one, on every metric, everywhere in the
// parameter space — and is typically much smaller than the exact set.
func Optimize(schema *Schema, model CostModel, opts Options) (*Result, error) {
	return core.OptimizeCtx(context.Background(), schema, model, opts) //mpq:ctxroot the facade's ctx-less Optimize is a deliberate root; cancellable runs go through Server.Prepare
}

// DefaultOptions mirrors the configuration of the paper's experiments:
// all Section 6.2 refinements enabled, Cartesian products postponed.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewSolver returns a geometry solver with the given configuration;
// zero fields take the defaults.
func NewSolver(cfg SolverConfig) *Solver { return geometry.NewSolver(cfg) }

// NewPWLAlgebra returns the exact PWL cost algebra with sum
// accumulation over the given number of metrics.
func NewPWLAlgebra(ctx *Solver, metrics int) *PWLAlgebra {
	return core.NewPWLAlgebra(ctx, metrics)
}

// NewCloudModel builds the cloud cost model (execution time and
// monetary fees) over a schema.
func NewCloudModel(schema *Schema, cfg CloudConfig, ctx *Solver) (*CloudModel, error) {
	return cloud.NewModel(schema, cfg, ctx)
}

// DefaultCloudConfig returns the EC2-style cluster model of the paper's
// evaluation.
func DefaultCloudConfig() CloudConfig { return cloud.DefaultConfig() }

// GenerateWorkload builds a random query following Steinbrunn et al.,
// the generator used by the paper's experiments.
func GenerateWorkload(cfg WorkloadConfig) (*Schema, error) { return workload.Generate(cfg) }

// RunBenchSeries executes one curve of the Figure 12 experiment.
func RunBenchSeries(cfg BenchConfig) (*BenchSeries, error) { return bench.RunSeries(cfg) }

// NewSampledAlgebra builds the grid-sampled cost algebra for arbitrary
// cost closures, demonstrating the generic RRPA of Section 5.
func NewSampledAlgebra(lo, hi Vector, cellsPerDim, metrics int) *SampledAlgebra {
	return sampled.NewAlgebra(lo, hi, cellsPerDim, metrics)
}

// Box returns the axis-aligned box polytope {x : lo <= x <= hi}.
func Box(lo, hi Vector) *Polytope { return geometry.Box(lo, hi) }

// Interval returns the one-dimensional polytope [lo, hi].
func Interval(lo, hi float64) *Polytope { return geometry.Interval(lo, hi) }

// LinearCost returns the single-metric cost function W·x + B on domain.
func LinearCost(domain *Polytope, w Vector, b float64) *PWLFunction {
	return pwl.Linear(domain, w, b)
}

// ConstantCost returns the constant single-metric cost function c.
func ConstantCost(domain *Polytope, c float64) *PWLFunction {
	return pwl.Constant(domain, c)
}

// MultiCost combines per-metric PWL functions into a multi-objective
// cost function.
func MultiCost(components ...*PWLFunction) *PWLMulti { return pwl.NewMulti(components...) }

// StaticSchema returns the one-pseudo-table schema used with
// StaticModel.
func StaticSchema(numParams int, lo, hi []float64) *Schema {
	return core.StaticSchema(numParams, lo, hi)
}

// EnumerateAllPlans generates every bushy plan without pruning — the
// exhaustive ground truth used to validate completeness (Theorem 3).
func EnumerateAllPlans(schema *Schema, model CostModel, algebra Algebra, postponeCartesian bool) []baseline.EnumPlan {
	return baseline.EnumerateAll(schema, model, algebra, postponeCartesian)
}

// Run-time plan selection types (the right half of the paper's
// Figure 2).
type (
	// Candidate is a plan available for run-time selection.
	Candidate = selection.Candidate
	// Choice is a selected plan with its cost vector.
	Choice = selection.Choice
	// Bound is an upper limit on one metric during selection.
	Bound = selection.Bound
	// PlanSet is a deserialized plan set.
	PlanSet = store.PlanSet
	// Diagram is a discretized plan/front map over the parameter space.
	Diagram = diagram.Diagram
)

// SavePlanSet serializes a Pareto plan set (plans, PWL cost functions,
// relevance regions) for later run-time use.
func SavePlanSet(w io.Writer, metrics []string, space *Polytope, plans []*PlanInfo) error {
	return store.Save(w, metrics, space, plans)
}

// SavePlanSetEpsilon is SavePlanSet for an ε-approximate plan set: the
// approximation factor the set was optimized with is recorded in the
// document, round-trips through LoadPlanSet (PlanSet.Epsilon), and
// keeps the tier addressable — an ε = 0 set serializes byte-identically
// to SavePlanSet.
func SavePlanSetEpsilon(w io.Writer, metrics []string, space *Polytope, plans []*PlanInfo, epsilon float64) error {
	return store.SaveIndexedEpsilon(w, metrics, space, plans, nil, epsilon)
}

// LoadPlanSet reads a serialized plan set.
func LoadPlanSet(r io.Reader) (*PlanSet, error) { return store.Load(r) }

// SelectionCandidates adapts a loaded plan set for the selection
// policies.
func SelectionCandidates(ps *PlanSet) []Candidate {
	out := make([]Candidate, len(ps.Plans))
	for i, lp := range ps.Plans {
		out[i] = Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	return out
}

// SelectFrontier evaluates candidates at x and returns the Pareto
// frontier sorted by the first metric.
func SelectFrontier(candidates []Candidate, x Vector) []Choice {
	return selection.Frontier(candidates, x)
}

// SelectWeightedSum picks the plan minimizing the weighted metric sum.
func SelectWeightedSum(candidates []Candidate, x Vector, weights []float64) (Choice, error) {
	return selection.WeightedSum(candidates, x, weights)
}

// SelectMinimizeSubjectTo picks the plan minimizing one metric under
// upper bounds on others.
func SelectMinimizeSubjectTo(candidates []Candidate, x Vector, minimize int, bounds []Bound) (Choice, error) {
	return selection.MinimizeSubjectTo(candidates, x, minimize, bounds)
}

// Serving-layer types: the optimizer as a long-lived service
// (preprocessing and run time of the paper's Figure 2 behind one
// concurrent API).
type (
	// Server is a long-lived optimizer service: solver pool, plan-set
	// cache, bounded request queue.
	Server = serve.Server
	// ServeOptions configures a Server (pool size, queue depth,
	// optimizer configuration, persistence directory).
	ServeOptions = serve.Options
	// ServeTemplate describes a query template for Server.Prepare.
	ServeTemplate = serve.Template
	// ServeStats is a snapshot of a Server's counters.
	ServeStats = serve.Stats
	// PrepareResult reports the outcome of Server.Prepare.
	PrepareResult = serve.PrepareResult
	// PickRequest selects a plan from a prepared plan set.
	PickRequest = serve.PickRequest
	// PickResult is the response to a PickRequest.
	PickResult = serve.PickResult
	// PickBatchRequest selects plans for many parameter points against
	// one prepared plan set in a single request; points are sorted into
	// pick-index cells to amortize traversals.
	PickBatchRequest = serve.PickBatchRequest
	// PickBatchResult is the response to a PickBatchRequest, in request
	// point order.
	PickBatchResult = serve.PickBatchResult
	// PickPolicy selects the run-time preference policy of a pick.
	PickPolicy = serve.Policy
	// PickIndex is a point-location index over a plan set's parameter
	// space: leaves hold the candidates relevant in each cell, so picks
	// scan a cell's subset instead of every candidate.
	PickIndex = index.Index
	// PickIndexOptions tunes a pick-index build (leaf target, depth and
	// leaf bounds, build parallelism).
	PickIndexOptions = index.Options
	// ServeIndexStats is the pick-index slice of ServeStats.
	ServeIndexStats = serve.IndexStats
)

// The run-time preference policies of a PickRequest.
const (
	PolicyFrontier          = serve.PolicyFrontier
	PolicyWeightedSum       = serve.PolicyWeightedSum
	PolicyMinimizeSubjectTo = serve.PolicyMinimizeSubjectTo
	PolicyLexicographic     = serve.PolicyLexicographic
)

// Serving-layer errors.
var (
	// ErrServeQueueFull reports that the server's bounded request queue
	// is at capacity; retry later.
	ErrServeQueueFull = serve.ErrQueueFull
	// ErrServerClosed reports a request after Server.Close.
	ErrServerClosed = serve.ErrServerClosed
	// ErrUnknownPlanSet reports a Pick for an unprepared key.
	ErrUnknownPlanSet = serve.ErrUnknownPlanSet
)

// NewServer starts a long-lived optimizer service: Prepare optimizes a
// template once, persists its Pareto plan set through the store format
// and caches it; Pick (and PickBatch) select plans for concrete
// parameter values against the cached set. With ServeOptions.Index,
// Prepare also builds a point-location pick index that turns each pick
// into a cell lookup, with byte-identical results to the linear scan.
// All methods are safe for concurrent use; see DESIGN.md, "Serving
// layer" and "Pick index".
func NewServer(opts ServeOptions) *Server { return serve.New(opts) }

// Fleet-serving types: the subsystem that lets a fleet of servers
// share preparations and survive real traffic — a memory-bounded
// cache, a shared plan-set store, and HTTP peer fetches. See DESIGN.md,
// "Fleet serving".
type (
	// SharedPlanSetStore is the shared plan-set document store a fleet
	// of servers publishes to and consults before optimizing
	// (ServeOptions.Shared).
	SharedPlanSetStore = fleet.SharedStore
	// DirPlanSetStore is the concurrency-safe on-disk SharedPlanSetStore:
	// immutable content-addressed blobs behind an fsync'd manifest.
	DirPlanSetStore = fleet.DirStore
	// PlanSetPeers fetches prepared plan-set documents from sibling
	// servers over HTTP (ServeOptions.Peers).
	PlanSetPeers = fleet.PeerClient
	// ServeCacheStats is the memory-accounted plan-set cache's
	// accounting (admitted − evicted = resident).
	ServeCacheStats = fleet.CacheStats
	// PeerStats counts peer-fetch traffic, including the resilience
	// counters (retries, breaker trips and skips, corrupt responses)
	// and each peer's circuit-breaker state.
	PeerStats = fleet.PeerStats
	// PeerOptions parameterizes a PlanSetPeers client: per-request
	// timeout, bounded retries with jittered exponential backoff, the
	// per-peer circuit breaker, and the response size limit. The zero
	// value selects production defaults.
	PeerOptions = fleet.PeerOptions
	// DonorPool lends idle goroutines to an optimizer run, which hands
	// them ready table sets to plan (Options.Donor; the serving layer
	// implements it over its own pool when ServeOptions.DonateWorkers
	// is set).
	DonorPool = core.DonorPool
)

// PlanSetPath is the HTTP path prefix under which servers expose
// prepared plan-set documents to peers (GET <peer>/planset/<key>).
const PlanSetPath = fleet.PlanSetPath

// NewSharedDirStore opens (creating if needed) an on-disk shared
// plan-set store rooted at dir, for ServeOptions.Shared.
func NewSharedDirStore(dir string) (*DirPlanSetStore, error) { return fleet.NewDirStore(dir) }

// NewPlanSetPeers returns a peer client over the given base URLs, for
// ServeOptions.Peers. Zero timeout selects 5s per peer request; the
// default retry and circuit-breaker parameters apply (see PeerOptions
// and NewPlanSetPeersOptions to tune them).
func NewPlanSetPeers(peers []string, timeout time.Duration) *PlanSetPeers {
	return fleet.NewPeerClient(peers, timeout)
}

// NewPlanSetPeersOptions is NewPlanSetPeers with explicit resilience
// parameters: bounded retries with jittered exponential backoff, a
// per-peer circuit breaker (open after BreakerThreshold consecutive
// failures, half-open probe after BreakerCooldown), and a response
// size limit. A corrupt or oversized peer response degrades to a
// counted miss, never a poisoned cache entry.
func NewPlanSetPeersOptions(peers []string, opts PeerOptions) *PlanSetPeers {
	return fleet.NewPeerClientOptions(peers, opts)
}

// BuildPickIndex builds a point-location pick index over a loaded plan
// set, for embedding the run-time half without a Server: pass the
// index's leaf candidates to the selection policies instead of the full
// candidate set. For points *inside the plan set's parameter space*
// (ps.Space.ContainsPoint(x, 1e-9) — validate before selecting, as the
// Server does), results are byte-identical to scanning all candidates;
// the leaf views elide the per-candidate space test, so out-of-space
// points must not be routed through them. When Locate reports a point
// outside the index box, fall back to the full candidate scan.
func BuildPickIndex(s *Solver, ps *PlanSet, opts PickIndexOptions) (*PickIndex, error) {
	return index.Build(s, ps.Space, SelectionCandidates(ps), opts)
}

// FrontSizeDiagram maps Pareto-front cardinality over the parameter
// space.
func FrontSizeDiagram(plans *diagram.MultiSlice, lo, hi Vector, resolution int) (*Diagram, error) {
	return diagram.FrontSize(plans, lo, hi, resolution)
}

// WinnerDiagram maps the weighted-sum winning plan over the parameter
// space (a plan diagram in the sense of Reddy & Haritsa).
func WinnerDiagram(plans *diagram.MultiSlice, lo, hi Vector, resolution int, weights []float64) (*Diagram, error) {
	return diagram.Winner(plans, lo, hi, resolution, weights)
}

// DiagramPlans adapts (name, cost) pairs for diagram construction.
func DiagramPlans(names []string, costs []*PWLMulti) *diagram.MultiSlice {
	return &diagram.MultiSlice{Names: names, Costs: costs}
}
