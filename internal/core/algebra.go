// Package core implements the paper's primary contribution: the
// Relevance Region Pruning Algorithm (RRPA, Algorithm 1) for
// multi-objective parametric query optimization, and its specialization
// PWL-RRPA for piecewise-linear cost functions (Section 6).
//
// RRPA is generic over the class of cost functions: the dynamic program
// only needs two operations — accumulating the cost of a new plan from
// its sub-plans and the join operator, and computing the parameter-space
// region in which one cost function dominates another. Those operations
// are abstracted by the Algebra interface; PWLAlgebra instantiates them
// with the exact piecewise-linear operations of Algorithm 3, yielding
// PWL-RRPA. The sampled algebra in mpq/internal/sampled demonstrates the
// generic algorithm on arbitrary (non-PWL) cost closures.
package core

import (
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// Cost is an opaque plan cost function; its concrete type is fixed by
// the Algebra in use (e.g. *pwl.Multi for PWLAlgebra).
type Cost any

// Algebra supplies the cost-function operations RRPA needs. An Algebra
// must treat dominance inclusively: ties count as dominance, matching
// the paper's Dom definition.
type Algebra interface {
	// Dom returns convex polytopes covering the parameter-space region
	// in which c1 dominates c2 (c1 at most c2 on every metric).
	Dom(c1, c2 Cost) []*geometry.Polytope
	// Accumulate combines the costs of two sub-plans and the cost of
	// the join step into the cost of the combined plan (the paper's
	// AccumulateCost).
	Accumulate(step, c1, c2 Cost) Cost
	// Eval evaluates the cost vector at a parameter point, for
	// diagnostics, plan selection, and tests.
	Eval(c Cost, x geometry.Vector) geometry.Vector
}

// ForkableAlgebra is an Algebra that can clone itself onto a different
// geometry solver. The dependency scheduler gives every worker its own
// fork so that concurrent Dom/Accumulate calls never share simplex
// scratch state — workers plan independent table sets concurrently;
// algebras that hold no solver may return themselves.
// An Algebra that does not implement ForkableAlgebra runs on one worker
// regardless of Options.Workers, and Options.Donor is never offered
// work.
type ForkableAlgebra interface {
	Algebra
	// Fork returns an equivalent Algebra whose geometric operations run
	// through s.
	Fork(s *geometry.Solver) Algebra
}

// EpsilonAlgebra extends Algebra with the scaled dominance regions of
// the ε-approximate prune (Options.Epsilon > 0). An algebra that does
// not implement EpsilonAlgebra cannot run approximate optimizations —
// OptimizeCtx reports an error rather than silently falling back to
// the exact prune.
type EpsilonAlgebra interface {
	Algebra
	// DomScaled returns convex polytopes covering the parameter-space
	// region {x : s1·c1(x) <= s2·c2(x) on every metric}. With
	// (s1, s2) = (1, 1+ε) this is the ε-relaxed dominance region of c1
	// over c2 — the region where c1 is within a (1+ε) factor of
	// dominating c2.
	DomScaled(c1, c2 Cost, s1, s2 float64) []*geometry.Polytope
}

// PWLAlgebra implements Algebra for piecewise-linear cost functions
// (*pwl.Multi), turning RRPA into PWL-RRPA.
type PWLAlgebra struct {
	// Ctx carries tolerances and the LP counter.
	Ctx *geometry.Solver
	// Modes is the per-metric accumulation of sub-plan costs.
	Modes []pwl.AccumMode
	// Compact merges equal-function pieces of accumulated costs,
	// keeping piece counts near the shared approximation grid size.
	// Accumulate only marks the merge pending on the *pwl.Multi it
	// returns; the prune finishes it once the plan survives the
	// whole-space screen (see finisher), so candidates dropped there
	// are never compacted.
	Compact bool
}

// NewPWLAlgebra returns a PWLAlgebra with compaction enabled and
// sum-accumulation on every metric.
func NewPWLAlgebra(ctx *geometry.Solver, metrics int) *PWLAlgebra {
	modes := make([]pwl.AccumMode, metrics)
	return &PWLAlgebra{Ctx: ctx, Modes: modes, Compact: true}
}

// Fork implements ForkableAlgebra: the copy shares all configuration
// but runs its geometry through s.
func (a *PWLAlgebra) Fork(s *geometry.Solver) Algebra {
	cp := *a
	cp.Ctx = s
	return &cp
}

// Dom implements Algebra using the exact PWL dominance-region
// computation of Algorithm 3.
func (a *PWLAlgebra) Dom(c1, c2 Cost) []*geometry.Polytope {
	return pwl.Dom(a.Ctx, c1.(*pwl.Multi), c2.(*pwl.Multi))
}

// Accumulate implements Algebra with the piecewise addition (and
// min/max) of Algorithm 3. With Compact, the result carries pending
// compaction.
func (a *PWLAlgebra) Accumulate(step, c1, c2 Cost) Cost {
	acc := pwl.AccumulateMulti(a.Ctx, a.Modes, step.(*pwl.Multi), c1.(*pwl.Multi), c2.(*pwl.Multi))
	if a.Compact {
		acc = acc.WithPendingCompaction()
	}
	return acc
}

// finisher is a Cost that carries deferred construction work, such as
// a *pwl.Multi with pending compaction. The mark travels on the cost
// value, so it passes unchanged through any Algebra that wraps
// PWLAlgebra. Finish does the work on s and reports whether there was
// any; equal inputs give equal finished costs.
type finisher interface {
	Finish(s *geometry.Solver) bool
}

// Eval implements Algebra.
func (a *PWLAlgebra) Eval(c Cost, x geometry.Vector) geometry.Vector {
	v, _ := c.(*pwl.Multi).Eval(x)
	return v
}

// DomScaled implements EpsilonAlgebra with the scaled PWL dominance
// regions of pwl.DomScaled.
func (a *PWLAlgebra) DomScaled(c1, c2 Cost, s1, s2 float64) []*geometry.Polytope {
	return pwl.DomScaled(a.Ctx, c1.(*pwl.Multi), c2.(*pwl.Multi), s1, s2)
}
