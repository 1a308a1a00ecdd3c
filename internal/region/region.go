// Package region implements relevance regions (RRs) for the relevance
// region pruning algorithm. Following Theorem 4 and Figure 8 of the
// paper, a relevance region is represented as the complement of a set of
// convex polytopes, the cutouts: a parameter-space point belongs to the
// region iff it is contained in no cutout.
//
// The package implements both elementary operations of Algorithm 2
// (SubtractPolys and IsEmpty) and the three refinements of Section 6.2:
// redundant-constraint elimination happens in the geometry package,
// redundant-cutout elimination and relevance points are implemented
// here.
package region

import (
	"fmt"

	"mpq/internal/geometry"
)

// EmptinessStrategy selects how Region.IsEmpty decides coverage of the
// parameter space by the cutouts.
type EmptinessStrategy int

const (
	// StrategyBemporad is the paper's Algorithm 2: check whether the
	// union of the cutouts is convex (Bemporad et al. convexity
	// recognition); if so, the region is empty iff the resulting
	// polytope contains the parameter space (Theorem 5).
	StrategyBemporad EmptinessStrategy = iota
	// StrategyCoverDiff checks directly whether the cutouts cover the
	// parameter space using region difference with early exit.
	StrategyCoverDiff
)

func (s EmptinessStrategy) String() string {
	switch s {
	case StrategyBemporad:
		return "bemporad"
	case StrategyCoverDiff:
		return "coverdiff"
	}
	return "unknown"
}

// ParseStrategy converts a strategy name (as produced by String) back to
// an EmptinessStrategy, for configuration files and serialized plan-set
// documents.
func ParseStrategy(name string) (EmptinessStrategy, error) {
	switch name {
	case "bemporad":
		return StrategyBemporad, nil
	case "coverdiff":
		return StrategyCoverDiff, nil
	}
	return 0, fmt.Errorf("region: unknown emptiness strategy %q", name)
}

// Options configures the refinements of Section 6.2.
type Options struct {
	// Strategy selects the emptiness check.
	Strategy EmptinessStrategy
	// RelevancePoints is the number of deterministic sample points
	// distributed across the parameter space when a region is created;
	// as long as one point survives all cutouts the region cannot be
	// empty and the expensive emptiness check is skipped (third
	// refinement of Section 6.2). Zero disables the heuristic.
	RelevancePoints int
	// EliminateRedundantCutouts drops cutouts that are covered by a
	// single other cutout (second refinement of Section 6.2).
	EliminateRedundantCutouts bool
}

// DefaultOptions returns the configuration used by the paper's
// experiments: all refinements enabled.
func DefaultOptions() Options {
	return Options{
		Strategy:                  StrategyBemporad,
		RelevancePoints:           16,
		EliminateRedundantCutouts: true,
	}
}

// Region is a relevance region: the subset of the parameter space not
// covered by any cutout.
//
// Whenever a geometric emptiness check proves the region non-empty, a
// witness point of the uncovered part is added to the relevance points,
// so the expensive geometry is only re-evaluated after new cutouts have
// covered that witness — a regeneration of the paper's relevance-point
// refinement that is crucial for pruning-heavy workloads.
type Region struct {
	space   *geometry.Polytope
	cutouts []*geometry.Polytope
	points  []geometry.Vector // surviving relevance points
	opts    Options
	// assumeInSpace marks read-only containment views (ContainmentView):
	// Contains skips the parameter-space test because the caller
	// guarantees queried points lie inside the space.
	assumeInSpace bool
}

// New creates the full relevance region over the given parameter space
// (Algorithm 1 line 36: the RR of a new plan is initialized by the full
// parameter space).
func New(ctx *geometry.Solver, space *geometry.Polytope, opts Options) *Region {
	// Warm the space's Chebyshev memo deterministically: emptiness
	// checks peek at it (Contains' fast rejection), and with parallel
	// workers a lazily computed memo would make the peek outcome — and
	// with it the LP count — depend on scheduling.
	ctx.Chebyshev(space)
	r := &Region{space: space, opts: opts}
	if opts.RelevancePoints > 0 {
		r.points = seedPoints(ctx, space, opts.RelevancePoints)
	}
	return r
}

// seedPoints distributes deterministic points across the parameter
// space: a grid over the bounding box filtered to the space, plus the
// Chebyshev center.
func seedPoints(ctx *geometry.Solver, space *geometry.Polytope, n int) []geometry.Vector {
	lo, hi, ok := ctx.BoundingBox(space)
	if !ok {
		return nil
	}
	dim := space.Dim()
	perDim := 2
	for {
		total := 1
		for i := 0; i < dim; i++ {
			total *= perDim
			if total >= n {
				break
			}
		}
		if total >= n || perDim > 64 {
			break
		}
		perDim++
	}
	var pts []geometry.Vector
	for _, p := range geometry.SamplePointsInBox(lo, hi, perDim, n) {
		if space.ContainsPoint(p, 1e-9) {
			pts = append(pts, p)
		}
	}
	if c, rad, ok := ctx.Chebyshev(space); ok && rad > 0 {
		pts = append(pts, c)
	}
	return pts
}

// Space returns the parameter space polytope.
func (r *Region) Space() *geometry.Polytope { return r.space }

// Options returns the refinement configuration the region was created
// with, so that serialized regions can be rebuilt identically at load
// time.
func (r *Region) Options() Options { return r.opts }

// Cutouts returns the current cutout list. The slice must not be
// modified.
func (r *Region) Cutouts() []*geometry.Polytope { return r.cutouts }

// ContainmentView returns a read-only view of the region that tests
// the given cutouts instead of the region's own. Contains through the
// view skips the parameter-space test; it is identical to the full
// region for every in-space point where the replaced cutout list is
// containment-equivalent — the contract of the pick index's cell
// restriction, which drops cutouts (and individual cutout constraints)
// that provably cannot decide a containment test inside a
// parameter-space cell, and only answers points validated to lie
// inside the space. The view must not be mutated (Subtract/IsEmpty) or
// serialized; it carries no relevance points.
func (r *Region) ContainmentView(cutouts []*geometry.Polytope) *Region {
	return &Region{space: r.space, cutouts: cutouts, opts: r.opts, assumeInSpace: true}
}

// NumCutouts returns the number of stored cutouts.
func (r *Region) NumCutouts() int { return len(r.cutouts) }

// Contains reports whether x belongs to the relevance region: inside the
// parameter space and outside every cutout. Views built with
// ContainmentView assume x is inside the space and test only the
// cutouts.
func (r *Region) Contains(x geometry.Vector, eps float64) bool {
	if !r.assumeInSpace && !r.space.ContainsPoint(x, eps) {
		return false
	}
	for _, c := range r.cutouts {
		if c.ContainsPoint(x, -eps) { // strictly inside a cutout
			return false
		}
	}
	return true
}

// Subtract reduces the region by the given polytopes by adding them as
// cutouts (Algorithm 2, SubtractPolys; Figure 10). Relevance points
// falling inside a new cutout are deleted; with redundant-cutout
// elimination enabled, cutouts covered by another single cutout are
// dropped.
func (r *Region) Subtract(ctx *geometry.Solver, polys ...*geometry.Polytope) {
	for _, p := range polys {
		if p == nil {
			continue
		}
		r.addCutout(ctx, p)
	}
}

func (r *Region) addCutout(ctx *geometry.Solver, c *geometry.Polytope) {
	if c == r.space {
		// A cutout that is the space itself (whole-space dominance, see
		// pwl.Dom) empties the region outright: no point survives it and
		// every other cutout is redundant.
		r.points = nil
		r.cutouts = []*geometry.Polytope{c}
		return
	}
	// Filter relevance points.
	if len(r.points) > 0 {
		kept := r.points[:0]
		for _, pt := range r.points {
			if !c.ContainsPoint(pt, 0) {
				kept = append(kept, pt)
			}
		}
		r.points = kept
	}
	if r.opts.EliminateRedundantCutouts {
		// Drop the new cutout if covered by an existing one.
		for _, old := range r.cutouts {
			if ctx.Contains(old, c) {
				return
			}
		}
		// Drop existing cutouts covered by the new one.
		kept := r.cutouts[:0]
		for _, old := range r.cutouts {
			if !ctx.Contains(c, old) {
				kept = append(kept, old)
			}
		}
		r.cutouts = kept
	}
	r.cutouts = append(r.cutouts, c)
}

// IsEmpty reports whether the relevance region is empty, i.e. whether
// the cutouts cover the parameter space (Algorithm 2, IsEmpty; Theorem
// 5). Coverage is decided up to lower-dimensional slivers (see
// DESIGN.md). While relevance points survive, the region is trivially
// non-empty and no geometry is evaluated.
func (r *Region) IsEmpty(ctx *geometry.Solver) bool {
	if len(r.points) > 0 {
		return false
	}
	if r.coveredBySpace() {
		return true
	}
	if len(r.cutouts) == 0 {
		return !ctx.IsFullDim(r.space)
	}
	if r.opts.Strategy == StrategyBemporad {
		// Theorem 5: a convex union (Bemporad et al. convexity
		// recognition) covers the space iff it contains it. A "no" is
		// not final: cutouts may extend past the space, so a non-convex
		// union — or a convex one that does not contain the space up to
		// tolerance — can still cover it, and region difference below
		// decides those cases. A "yes" is final, and it is not always
		// the answer region difference would give: the convexity
		// test's tolerances also call a union covering where region
		// difference still finds a full-dimensional sliver, so this
		// strategy drops plans StrategyCoverDiff keeps. On the measured
		// templates each such plan is weakly dominated by the plans
		// this strategy keeps (DESIGN.md, "Emptiness with tolerance").
		if u, convex := ctx.UnionConvex(r.cutouts); convex && ctx.Contains(u, r.space) {
			return true
		}
	}
	w := ctx.UncoveredWitness(r.space, r.cutouts)
	if w == nil {
		return true
	}
	// Keep the witness so the next checks are point-based.
	r.regeneratePoint(ctx, w)
	return false
}

// coveredBySpace reports whether the region's cutout is the space
// itself, the empty region addCutout leaves after a whole-space cutout.
func (r *Region) coveredBySpace() bool {
	return len(r.cutouts) == 1 && r.cutouts[0] == r.space
}

// regeneratePoint records the Chebyshev center of an uncovered residual
// as a fresh relevance point.
func (r *Region) regeneratePoint(ctx *geometry.Solver, residual *geometry.Polytope) {
	c, _, ok := ctx.Chebyshev(residual)
	if ok && r.space.ContainsPoint(c, 1e-9) {
		r.points = append(r.points, c)
	}
}

// Witness returns a point in the relevance region, preferring a
// surviving relevance point and falling back to a region-difference
// witness. ok is false when the region is empty.
func (r *Region) Witness(ctx *geometry.Solver) (geometry.Vector, bool) {
	if len(r.points) > 0 {
		return r.points[0], true
	}
	w := ctx.UncoveredWitness(r.space, r.cutouts)
	if w == nil {
		return nil, false
	}
	c, _, ok := ctx.Chebyshev(w)
	if !ok {
		return nil, false
	}
	return c, true
}

// Pieces materializes the relevance region as a set of convex polytopes
// via region difference, used for reporting and tests.
func (r *Region) Pieces(ctx *geometry.Solver) []*geometry.Polytope {
	return ctx.RegionDiff(r.space, r.cutouts)
}

func (r *Region) String() string {
	return fmt.Sprintf("RR{space=%s cutouts=%d points=%d}", r.space, len(r.cutouts), len(r.points))
}
