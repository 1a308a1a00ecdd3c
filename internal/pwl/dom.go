package pwl

import (
	"mpq/internal/geometry"
)

// domPoly is a dominance polytope together with provenance: the region
// it was cut from and the dominance halfspaces applied, enabling
// LP-free full-dimensionality certificates and partition-based pruning
// in the cross-metric product.
type domPoly struct {
	poly *geometry.Polytope
	base *geometry.Polytope
	cuts []geometry.Halfspace // poly == base.With(cuts...)
}

// Dom computes a set of convex polytopes covering the parameter-space
// region in which cost function c1 dominates cost function c2, i.e. the
// region {x : c1_m(x) <= c2_m(x) for every metric m}. This is function
// Dom of Algorithm 3 in the paper:
//
//  1. For each metric m, collect the polytopes where c1 is better than
//     or equal to c2 according to m: for every pair of linear pieces the
//     region is the piece-region intersection further constrained by the
//     linear inequality (w1-w2)·x <= b2-b1 (Theorem 2: this is a convex
//     polytope inside a linear region).
//  2. Combine metrics by intersecting one polytope per metric, over all
//     combinations (the last line of Algorithm 3).
//
// Polytopes that are not full-dimensional are dropped: they cannot
// contribute to covering a full-dimensional relevance region and would
// otherwise bloat cutout lists (see DESIGN.md). Pairs of polytopes cut
// from distinct cells of one partition family are skipped in step 2
// because their intersection is lower-dimensional by construction.
//
// When c1 and c2 share one cover on every metric and c1 <= c2 holds on
// every piece-pair region, the result is that cover alone: whole-space
// dominance, decided by one support LP per pair instead of building and
// intersecting the per-pair polytopes (see DESIGN.md, "Prune fast
// path"). Dom is DomScaled at scales (1, 1); multiplying by one is
// exact, so both share one construction.
func Dom(ctx *geometry.Context, c1, c2 *Multi) []*geometry.Polytope {
	return DomScaled(ctx, c1, c2, 1, 1)
}

// DomScaled computes convex polytopes covering the parameter-space
// region {x : s1·c1_m(x) <= s2·c2_m(x) for every metric m} — the
// scaled-dominance primitive of the ε-approximate prune. With
// s1 = 1, s2 = 1+ε the result covers the region where c1 is within a
// multiplicative (1+ε) factor of dominating c2; with s1 = 1+ε, s2 = 1
// it covers the strict inverse (c1 at most c2/(1+ε)). The scales are
// folded directly into each piece-pair halfspace — no division — and
// the construction, fast path included, is the one Dom documents.
func DomScaled(ctx *geometry.Context, c1, c2 *Multi, s1, s2 float64) []*geometry.Polytope {
	if c2.NumMetrics() != c1.NumMetrics() {
		panic("pwl: dominance between functions with different metric counts")
	}
	pairs := newDomPairs(ctx, c1, c2, s1, s2)
	if cover := sharedCover(c1, c2); cover != nil && dominatesOnPairs(ctx, pairs) {
		return []*geometry.Polytope{cover}
	}
	return domPieces(ctx, pairs)
}

// domPieces is the per-piece construction of Dom: per metric the cut
// pair regions, then their full-dimensional intersections across
// metrics.
func domPieces(ctx *geometry.Context, pairs *domPairs) []*geometry.Polytope {
	nM := len(pairs.pairs)
	perMetric := make([][]domPoly, nM)
	for m := 0; m < nM; m++ {
		polys := pairPolys(ctx, pairs.of(m))
		if len(polys) == 0 {
			return nil // s1·c1 nowhere at most s2·c2 on metric m
		}
		perMetric[m] = polys
	}
	result := perMetric[0]
	for m := 1; m < nM; m++ {
		var next []domPoly
		for _, a := range result {
			for _, b := range perMetric[m] {
				if merged, ok := intersectDomPolys(ctx, a, b); ok {
					next = append(next, merged)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		result = next
	}
	out := make([]*geometry.Polytope, len(result))
	for i, dp := range result {
		out[i] = dp.poly
	}
	return out
}

// sharedCover returns the cover every component of c1 and c2 carries,
// or nil when they do not all share one.
func sharedCover(c1, c2 *Multi) *geometry.Polytope {
	cover := c1.comps[0].cover
	if cover == nil {
		return nil
	}
	for m := range c1.comps {
		if c1.comps[m].cover != cover || c2.comps[m].cover != cover {
			return nil
		}
	}
	return cover
}

// dominatesOnPairs reports whether every piece-pair halfspace of every
// metric holds on its whole pair region. Rows With drops as trivial
// hold by definition. Each other pair is first screened at its region's
// memoized Chebyshev centre, so a pair that fails inside costs no LP;
// the survivors take one support LP each, the maximum of the
// normalized row over the region (the simplex's optimality tolerance
// is absolute, so a raw row of near-tied costs would read as zero).
// The uncovered part a pair may leave is at most Eps deep, far below
// Config.RadiusTol, so the per-pair construction covers the same space
// up to the slivers the emptiness checks ignore.
func dominatesOnPairs(ctx *geometry.Context, pairs *domPairs) bool {
	for m := range pairs.pairs {
		for _, p := range pairs.of(m) {
			if p.h.IsTrivial(trivialEps) {
				continue
			}
			if c, _, ok := ctx.Chebyshev(p.r); ok && p.h.W.Dot(c)-p.h.B > ctx.Eps*p.h.W.Norm2() {
				return false
			}
		}
	}
	for m := range pairs.pairs {
		for _, p := range pairs.of(m) {
			if p.h.IsTrivial(trivialEps) {
				continue
			}
			h := p.h.Normalize()
			val, ok, _ := ctx.SupportValue(p.r, h.W)
			if !ok || val-h.B > ctx.Eps*h.W.Norm2() {
				return false
			}
		}
	}
	return true
}

// trivialEps is the tolerance below which Polytope.With drops a row as
// satisfied everywhere.
const trivialEps = 1e-12

// intersectDomPolys intersects two dominance polytopes, keeping only
// full-dimensional results.
func intersectDomPolys(ctx *geometry.Context, a, b domPoly) (domPoly, bool) {
	if geometry.SameFamilyDisjoint(a.base, b.base) {
		// Distinct cells of one partition: lower-dimensional overlap.
		return domPoly{}, false
	}
	if a.base == b.base {
		cuts := make([]geometry.Halfspace, 0, len(a.cuts)+len(b.cuts))
		cuts = append(cuts, a.cuts...)
		cuts = append(cuts, b.cuts...)
		if ctx.BallCertifiesFullDim(a.base, cuts...) {
			return domPoly{poly: a.base.With(cuts...), base: a.base, cuts: cuts}, true
		}
		p := a.base.With(cuts...)
		if ctx.IsFullDim(p) {
			return domPoly{poly: p, base: a.base, cuts: cuts}, true
		}
		return domPoly{}, false
	}
	p := a.poly.Intersect(b.poly)
	if !ctx.IsFullDim(p) {
		return domPoly{}, false
	}
	return domPoly{poly: p, base: p}, true
}

// domPair is one piece pair of a single-objective dominance region: the
// pair's region and the halfspace on which the first piece is at most
// the second (after scaling).
type domPair struct {
	r *geometry.Polytope
	h geometry.Halfspace
}

// domPairs enumerates the piece pairs of c1 and c2 metric by metric on
// first use, so the fast path and the per-piece construction share one
// enumeration (and its full-dimensionality LPs).
type domPairs struct {
	ctx    *geometry.Context
	c1, c2 *Multi
	s1, s2 float64
	pairs  [][]domPair
	done   []bool
}

func newDomPairs(ctx *geometry.Context, c1, c2 *Multi, s1, s2 float64) *domPairs {
	n := c1.NumMetrics()
	return &domPairs{ctx: ctx, c1: c1, c2: c2, s1: s1, s2: s2, pairs: make([][]domPair, n), done: make([]bool, n)}
}

// of returns the piece pairs of metric m.
func (d *domPairs) of(m int) []domPair {
	if !d.done[m] {
		d.pairs[m] = piecePairs(d.ctx, d.c1.Component(m), d.c2.Component(m), d.s1, d.s2)
		d.done[m] = true
	}
	return d.pairs[m]
}

// piecePairs lists the full-dimensional piece pairs of f and g with the
// halfspace (s1·w_f − s2·w_g)·x <= s2·b_g − s1·b_f of {x : s1·f(x) <=
// s2·g(x)} on each. Shared-partition fast paths mirror those of the
// combination operators: cross pairs of a common partition have
// lower-dimensional intersections and are skipped without solving LPs.
func piecePairs(ctx *geometry.Context, f, g *Function, s1, s2 float64) []domPair {
	var pairs []domPair
	add := func(r *geometry.Polytope, fp, gp Piece) {
		// The conversions round each product before the subtraction (no
		// fused multiply-add), so scales (1, 1) give exactly w_f − w_g
		// and b_g − b_f: Dom's bytes are those of an unscaled build.
		w := make(geometry.Vector, len(fp.W))
		for i := range w {
			w[i] = float64(s1*fp.W[i]) - float64(s2*gp.W[i])
		}
		pairs = append(pairs, domPair{r: r, h: geometry.Halfspace{W: w, B: float64(s2*gp.B) - float64(s1*fp.B)}})
	}
	sharedCover := f.cover != nil && f.cover == g.cover
	switch {
	case sharedCover && len(f.pieces) == 1:
		for _, gp := range g.pieces {
			add(gp.Region, f.pieces[0], gp)
		}
	case sharedCover && len(g.pieces) == 1:
		for _, fp := range f.pieces {
			add(fp.Region, fp, g.pieces[0])
		}
	case sharedCover && alignedPartitions(f, g):
		for i, fp := range f.pieces {
			add(fp.Region, fp, g.pieces[i])
		}
	default:
		for _, fp := range f.pieces {
			for _, gp := range g.pieces {
				if geometry.SameFamilyDisjoint(fp.Region, gp.Region) {
					continue
				}
				var r *geometry.Polytope
				if fp.Region == gp.Region {
					r = fp.Region
				} else {
					r = fp.Region.Intersect(gp.Region)
					if !ctx.IsFullDim(r) {
						continue
					}
				}
				add(r, fp, gp)
			}
		}
	}
	return pairs
}

// pairPolys cuts each pair region by its halfspace, keeping the
// full-dimensional results; a memoized Chebyshev-ball certificate
// avoids the LP for cuts that clearly retain an interior ball.
func pairPolys(ctx *geometry.Context, pairs []domPair) []domPoly {
	var polys []domPoly
	for _, p := range pairs {
		cuts := []geometry.Halfspace{p.h}
		if ctx.BallCertifiesFullDim(p.r, p.h) {
			polys = append(polys, domPoly{poly: p.r.With(p.h), base: p.r, cuts: cuts})
			continue
		}
		if rDom := p.r.With(p.h); ctx.IsFullDim(rDom) {
			polys = append(polys, domPoly{poly: rDom, base: p.r, cuts: cuts})
		}
	}
	return polys
}

// DominatesEverywhere reports whether c1 dominates c2 on the entire
// domain polytope: the dominance polytopes of Dom must cover the domain.
func DominatesEverywhere(ctx *geometry.Context, c1, c2 *Multi, domain *geometry.Polytope) bool {
	polys := Dom(ctx, c1, c2)
	if len(polys) == 0 {
		return false
	}
	return ctx.UnionCovers(domain, polys)
}
