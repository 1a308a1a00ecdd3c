package pwl

import (
	"math"

	"mpq/internal/geometry"
)

// AccumMode selects how the cost of two sub-plans is combined into the
// cost of their parent (Section 6.1: "standard accumulation functions
// such as minimum, maximum, and weighted sum").
type AccumMode int

const (
	// AccumSum adds the sub-plan costs (sequential execution; additive
	// metrics such as monetary fees).
	AccumSum AccumMode = iota
	// AccumMax takes the maximum (execution time of sub-plans executed
	// in parallel).
	AccumMax
	// AccumMin takes the minimum.
	AccumMin
)

func (m AccumMode) String() string {
	switch m {
	case AccumSum:
		return "sum"
	case AccumMax:
		return "max"
	case AccumMin:
		return "min"
	}
	return "unknown"
}

// Add returns f + g. The parameter space is partitioned into regions in
// which both functions are linear (piece-region intersections); in each
// non-empty region the weight vectors and base costs are added, exactly
// as illustrated by Figure 11 of the paper. Pieces whose region is not
// full-dimensional are dropped.
func Add(ctx *geometry.Solver, f, g *Function) *Function {
	return combine(ctx, f, g, func(r *geometry.Polytope, fp, gp Piece) []Piece {
		return []Piece{{Region: r, W: fp.W.Add(gp.W), B: fp.B + gp.B}}
	})
}

// Max returns the pointwise maximum of f and g. Each pair of overlapping
// pieces is split by the hyperplane where the two linear functions
// cross.
func Max(ctx *geometry.Solver, f, g *Function) *Function {
	return combine(ctx, f, g, func(r *geometry.Polytope, fp, gp Piece) []Piece {
		// f >= g where (gp.W - fp.W)·x <= fp.B - gp.B.
		return splitPieces(ctx, r,
			Piece{W: fp.W, B: fp.B}, geometry.Halfspace{W: gp.W.Sub(fp.W), B: fp.B - gp.B},
			Piece{W: gp.W, B: gp.B}, geometry.Halfspace{W: fp.W.Sub(gp.W), B: gp.B - fp.B})
	})
}

// Min returns the pointwise minimum of f and g.
func Min(ctx *geometry.Solver, f, g *Function) *Function {
	return combine(ctx, f, g, func(r *geometry.Polytope, fp, gp Piece) []Piece {
		return splitPieces(ctx, r,
			Piece{W: fp.W, B: fp.B}, geometry.Halfspace{W: gp.W.Sub(fp.W), B: fp.B - gp.B}.Flip(),
			Piece{W: gp.W, B: gp.B}, geometry.Halfspace{W: fp.W.Sub(gp.W), B: gp.B - fp.B}.Flip())
	})
}

// splitPieces cuts region r by the crossing hyperplane, keeping only the
// full-dimensional halves; the Chebyshev-ball certificate of r avoids an
// LP when a half clearly retains an interior ball.
func splitPieces(ctx *geometry.Solver, r *geometry.Polytope, pa Piece, ha geometry.Halfspace, pb Piece, hb geometry.Halfspace) []Piece {
	out := make([]Piece, 0, 2)
	for _, half := range []struct {
		p Piece
		h geometry.Halfspace
	}{{pa, ha}, {pb, hb}} {
		if ctx.BallCertifiesFullDim(r, half.h) {
			out = append(out, Piece{Region: r.With(half.h), W: half.p.W, B: half.p.B})
			continue
		}
		side := r.With(half.h)
		if ctx.IsFullDim(side) {
			out = append(out, Piece{Region: side, W: half.p.W, B: half.p.B})
		}
	}
	return out
}

// Scale returns s * f.
func Scale(f *Function, s float64) *Function {
	pieces := make([]Piece, len(f.pieces))
	for i, p := range f.pieces {
		pieces[i] = Piece{Region: p.Region, W: p.W.Scale(s), B: p.B * s}
	}
	return &Function{dim: f.dim, pieces: pieces, cover: f.cover}
}

// AddConstant returns f + c.
func AddConstant(f *Function, c float64) *Function {
	pieces := make([]Piece, len(f.pieces))
	for i, p := range f.pieces {
		pieces[i] = Piece{Region: p.Region, W: p.W.Clone(), B: p.B + c}
	}
	return &Function{dim: f.dim, pieces: pieces, cover: f.cover}
}

// combine applies build to every full-dimensional intersection of a
// piece of f with a piece of g.
//
// Fast paths exploit shared partitions: when f and g carry the same
// cover polytope, a single-piece function spans the whole partition of
// the other (no intersection checks needed), and two functions whose
// piece regions are pairwise identical pointers combine piece-by-piece
// because cross pairs of a common partition have lower-dimensional
// intersections by construction.
func combine(ctx *geometry.Solver, f, g *Function, build func(*geometry.Polytope, Piece, Piece) []Piece) *Function {
	if f.dim != g.dim {
		panic("pwl: combining functions of different dimensions")
	}
	// build must return only pieces that are valid to keep: its result
	// regions are either r itself or full-dimensional cuts of r (the
	// split helpers filter internally).
	var out []Piece
	emit := func(r *geometry.Polytope, fp, gp Piece) {
		out = append(out, build(r, fp, gp)...)
	}
	sharedCover := f.cover != nil && f.cover == g.cover
	switch {
	case sharedCover && len(f.pieces) == 1:
		fp := f.pieces[0]
		for _, gp := range g.pieces {
			emit(gp.Region, fp, gp)
		}
	case sharedCover && len(g.pieces) == 1:
		gp := g.pieces[0]
		for _, fp := range f.pieces {
			emit(fp.Region, fp, gp)
		}
	case sharedCover && alignedPartitions(f, g):
		for i, fp := range f.pieces {
			emit(fp.Region, fp, g.pieces[i])
		}
	default:
		for _, fp := range f.pieces {
			for _, gp := range g.pieces {
				r := fp.Region.Intersect(gp.Region)
				if !ctx.IsFullDim(r) {
					continue
				}
				emit(r, fp, gp)
			}
		}
	}
	if len(out) == 0 {
		// Functions with disjoint domains: keep an explicit empty-domain
		// representation to avoid panics downstream.
		empty := geometry.NewPolytope(f.dim, geometry.Halfspace{W: geometry.NewVector(f.dim), B: -1})
		out = []Piece{{Region: empty, W: geometry.NewVector(f.dim), B: 0}}
	}
	res := &Function{dim: f.dim, pieces: out}
	if sharedCover {
		res.cover = f.cover
	}
	return res
}

// alignedPartitions reports whether f and g consist of pieces over the
// exact same region objects, in order.
func alignedPartitions(f, g *Function) bool {
	if len(f.pieces) != len(g.pieces) {
		return false
	}
	for i := range f.pieces {
		if f.pieces[i].Region != g.pieces[i].Region {
			return false
		}
	}
	return true
}

// WeightedSum scalarizes a multi-objective function into a single
// objective using non-negative metric weights.
func WeightedSum(ctx *geometry.Solver, m *Multi, weights []float64) *Function {
	if len(weights) != m.NumMetrics() {
		panic("pwl: weight count mismatch")
	}
	acc := Scale(m.Component(0), weights[0])
	for i := 1; i < m.NumMetrics(); i++ {
		acc = Add(ctx, acc, Scale(m.Component(i), weights[i]))
	}
	return acc
}

// AccumulateMulti combines the costs of two sub-plans and the cost of the
// operator that joins them into the cost of the new plan (Algorithm 3,
// AccumulateCost, generalized per footnote 1: sub-plan costs are combined
// first, the operator cost is added in a second step). modes selects the
// per-metric combination of the sub-plan costs; the operator cost is
// always additive.
func AccumulateMulti(ctx *geometry.Solver, modes []AccumMode, opCost, c1, c2 *Multi) *Multi {
	nM := c1.NumMetrics()
	if c2.NumMetrics() != nM || opCost.NumMetrics() != nM || len(modes) != nM {
		panic("pwl: metric count mismatch in accumulation")
	}
	comps := make([]*Function, nM)
	for m := 0; m < nM; m++ {
		var combined *Function
		switch modes[m] {
		case AccumSum:
			combined = Add(ctx, c1.Component(m), c2.Component(m))
		case AccumMax:
			combined = Max(ctx, c1.Component(m), c2.Component(m))
		case AccumMin:
			combined = Min(ctx, c1.Component(m), c2.Component(m))
		default:
			panic("pwl: unknown accumulation mode")
		}
		comps[m] = Add(ctx, combined, opCost.Component(m))
	}
	return NewMulti(comps...)
}

// Compact merges pieces that share the same linear function whenever
// their union is convex (recognized with the Bemporad et al. algorithm),
// reducing piece counts after accumulation. Pieces count as sharing a
// function when their coefficients agree after rounding to 10 decimal
// digits (see appendFloat); the merged piece keeps the first piece's
// W and B.
func Compact(ctx *geometry.Solver, f *Function) *Function {
	groups := make(map[string][]Piece)
	var order []string
	for _, p := range f.pieces {
		k := pieceKey(p)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	var out []Piece
	for _, k := range order {
		ps := groups[k]
		if len(ps) == 1 {
			out = append(out, ps[0])
			continue
		}
		regions := make([]*geometry.Polytope, len(ps))
		for i, p := range ps {
			regions[i] = p.Region
		}
		if u, convex := ctx.UnionConvex(regions); convex && u != nil {
			out = append(out, Piece{Region: u, W: ps[0].W, B: ps[0].B})
		} else {
			out = append(out, ps...)
		}
	}
	return &Function{dim: f.dim, pieces: out, cover: f.cover}
}

func pieceKey(p Piece) string {
	key := make([]byte, 0, 16*(len(p.W)+1))
	appendF := func(v float64) {
		key = appendFloat(key, v)
	}
	for _, w := range p.W {
		appendF(w)
	}
	appendF(p.B)
	return string(key)
}

func appendFloat(b []byte, v float64) []byte {
	// Round to 10 decimal digits for grouping. Where the rounded value
	// leaves int64's range the conversion would collapse distinct
	// values onto one key, so those values key on their exact bits,
	// under a different separator so the two key kinds never collide.
	const scale = 1e10
	r, sep := uint64(0), byte('|')
	if s := v * scale; s >= -0x1p63 && s < 0x1p63 {
		r = uint64(int64(s))
	} else {
		r, sep = math.Float64bits(v), '#'
	}
	for i := 0; i < 8; i++ {
		b = append(b, byte(r>>(8*i)))
	}
	return append(b, sep)
}
