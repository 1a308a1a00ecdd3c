package geometry

import "fmt"

// Stats counts the work performed through a Solver. The LP counter is
// the quantity reported as "number of solved linear programs" in
// Figure 12 of the paper; Chebyshev LPs resolved by the interval fast
// paths (see fastpath.go) still count as solved LPs so the metric stays
// comparable across optimizer versions.
type Stats struct {
	// LPs is the number of linear programs solved.
	LPs int64
	// LPIterations is the total number of simplex pivots across all LPs.
	LPIterations int64
	// FastPathLPs is the subset of LPs resolved without running the
	// simplex: Chebyshev's interval-infeasible screen and its closed-form
	// ball of an axis-aligned box.
	FastPathLPs int64
	// RegionDiffs counts region-difference computations.
	RegionDiffs int64
	// ConvexityChecks counts union-convexity recognitions.
	ConvexityChecks int64
}

// Add accumulates other into s. It is the merge operation used to
// combine per-worker solver counters into the aggregate Figure 12
// quantities; integer addition makes the aggregate independent of how
// work was partitioned across workers — including the out-of-order
// task completion of a dependency-scheduled run, where workers plan
// masks of different cardinalities concurrently.
func (s *Stats) Add(other Stats) {
	s.LPs += other.LPs
	s.LPIterations += other.LPIterations
	s.FastPathLPs += other.FastPathLPs
	s.RegionDiffs += other.RegionDiffs
	s.ConvexityChecks += other.ConvexityChecks
}

// Sub subtracts other from s, for computing the counters of one run
// from cumulative solver totals.
func (s *Stats) Sub(other Stats) {
	s.LPs -= other.LPs
	s.LPIterations -= other.LPIterations
	s.FastPathLPs -= other.FastPathLPs
	s.RegionDiffs -= other.RegionDiffs
	s.ConvexityChecks -= other.ConvexityChecks
}

func (s Stats) String() string {
	return fmt.Sprintf("LPs=%d pivots=%d fastLPs=%d regionDiffs=%d convexityChecks=%d",
		s.LPs, s.LPIterations, s.FastPathLPs, s.RegionDiffs, s.ConvexityChecks)
}

// CompareEps is the shared comparison tolerance of the numeric layers:
// the default solver Eps, the relevance-region containment tolerance of
// the selection policies (selection.ContainsEps aliases it), the piece
// location tolerance of pwl evaluation, and the cell-exclusion margin
// of the point-location index all use this one constant, so a plan
// admitted by one layer is never rejected by another over a smaller
// epsilon. The mpqfloateq analyzer's approved-helper discipline refers
// to this constant: exact float ==/!= in the epsilon-disciplined
// packages must be replaced by comparisons against CompareEps-scaled
// margins (or carry an //mpq:floatexact waiver).
const CompareEps = 1e-9

// Config is the immutable numerical configuration of the geometry
// layer: tolerances and iteration caps. A Config carries no mutable
// state, so one value can be shared (by copy) between any number of
// concurrent Solvers.
type Config struct {
	// Eps is the basic numerical tolerance for comparisons against zero.
	Eps float64
	// RadiusTol is the Chebyshev-radius threshold below which a polytope
	// is treated as lower-dimensional ("thin") and therefore empty for
	// the purposes of cover checks. See DESIGN.md, "Emptiness with
	// tolerance".
	RadiusTol float64
	// MaxSimplexIter bounds the pivots of a single LP before the solver
	// switches from Dantzig to Bland's anti-cycling rule.
	MaxSimplexIter int
}

// DefaultConfig returns the default tolerances.
func DefaultConfig() Config {
	return Config{
		Eps:            CompareEps,
		RadiusTol:      1e-7,
		MaxSimplexIter: 500,
	}
}

// Solver performs the geometric operations (linear programs, emptiness
// tests, region differences) of one worker. It embeds the shared
// immutable Config and owns the simplex scratch buffers plus a local
// Stats block, so a Solver is cheap to call repeatedly but is NOT safe
// for concurrent use. To run several workers, Fork one Solver per
// worker and merge their Stats with Stats.Add afterwards; the per-
// polytope Chebyshev memo is internally synchronized, so concurrent
// Solvers may safely share Polytope values.
type Solver struct {
	// Config is the shared immutable configuration.
	Config
	// Stats accumulates this solver's counters.
	Stats Stats

	// Scratch buffers reused across the many small LPs of an optimizer
	// run (a Solver is single-threaded and LPs never nest).
	scratchTableau     tableau
	scratchRows        [][]float64
	scratchBasis       []int
	scratchBacking     []float64
	scratchObj1        []float64
	scratchObj2        []float64
	scratchSnapRows    []float64
	scratchSnapBasis   []int
	scratchLo          []float64
	scratchHi          []float64
	scratchHalfspaces  []Halfspace
	scratchChebBacking []float64
}

// NewSolver returns a Solver using the given configuration. Zero
// tolerances are replaced by the defaults.
func NewSolver(cfg Config) *Solver {
	def := DefaultConfig()
	if cfg.Eps == 0 { //mpq:floatexact zero-value Config sentinel meaning "use default", not a numeric comparison
		cfg.Eps = def.Eps
	}
	if cfg.RadiusTol == 0 { //mpq:floatexact zero-value Config sentinel meaning "use default", not a numeric comparison
		cfg.RadiusTol = def.RadiusTol
	}
	if cfg.MaxSimplexIter == 0 {
		cfg.MaxSimplexIter = def.MaxSimplexIter
	}
	return &Solver{Config: cfg}
}

// Fork returns a fresh Solver sharing s's configuration, with its own
// scratch buffers and zeroed Stats. The fork is independent of s and
// safe to use from another goroutine.
func (s *Solver) Fork() *Solver { return &Solver{Config: s.Config} }

// DrainStats returns the accumulated counters and zeroes them, so a
// coordinator can merge per-worker counters into a run aggregate
// exactly once even when workers complete tasks out of order or are
// reused across phases. The caller must not race the solver's owner;
// drain at join points only.
func (s *Solver) DrainStats() Stats {
	st := s.Stats
	s.Stats = Stats{}
	return st
}
