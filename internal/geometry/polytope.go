package geometry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Polytope is a convex polyhedron in H-representation: the intersection
// of finitely many halfspaces W·x <= B (Figure 3 of the paper). A
// polytope with no constraints is the whole space R^dim. Polytopes are
// immutable: all operations return new values.
//
// The Chebyshev center computation is memoized per polytope. The memo
// is published through an atomic pointer and computed under a per-
// polytope mutex, so concurrent Solvers may share polytopes: exactly
// one solver performs the LP (and counts it), all others block and read
// the memo — the aggregate LP count is therefore independent of how
// work is scheduled. A cache hit does not count as a solved LP.
type Polytope struct {
	dim int
	hs  []Halfspace

	cheb   atomic.Pointer[chebMemo]
	chebMu sync.Mutex

	family *Family
}

// chebMemo is the immutable memoized Chebyshev result of a polytope.
type chebMemo struct {
	ok     bool
	center Vector
	radius float64
}

// Family identifies a partition of the parameter space: polytopes marked
// with the same family are asserted to have pairwise disjoint interiors
// (e.g. the simplices of one triangulation grid). Dominance-region
// computations use this to skip intersections that are lower-dimensional
// by construction.
type Family struct{ name string }

// NewFamily creates a partition family.
func NewFamily(name string) *Family { return &Family{name: name} }

// MarkFamily tags p as a cell of the partition family f. It must be
// called at construction time, before the polytope is shared; the caller
// asserts disjoint interiors with all other members of f.
func (p *Polytope) MarkFamily(f *Family) { p.family = f }

// SameFamilyDisjoint reports whether p and q are distinct cells of the
// same partition family, i.e. their intersection is lower-dimensional by
// construction.
func SameFamilyDisjoint(p, q *Polytope) bool {
	return p != q && p.family != nil && p.family == q.family
}

// NewPolytope builds a polytope in R^dim from the given halfspaces.
// Exact duplicate constraints are removed.
func NewPolytope(dim int, hs ...Halfspace) *Polytope {
	p := &Polytope{dim: dim, hs: dedupHalfspaces(hs)}
	return p
}

// Box returns the axis-aligned box {x : lo <= x <= hi} as a polytope.
func Box(lo, hi Vector) *Polytope {
	if len(lo) != len(hi) {
		panic("geometry: Box bounds with different dimensions")
	}
	dim := len(lo)
	hs := make([]Halfspace, 0, 2*dim)
	for i := 0; i < dim; i++ {
		w := NewVector(dim)
		w[i] = 1
		hs = append(hs, Halfspace{W: w, B: hi[i]})
		wn := NewVector(dim)
		wn[i] = -1
		hs = append(hs, Halfspace{W: wn, B: -lo[i]})
	}
	return &Polytope{dim: dim, hs: hs}
}

// UnitBox returns [0,1]^dim.
func UnitBox(dim int) *Polytope {
	lo, hi := NewVector(dim), NewVector(dim)
	for i := range hi {
		hi[i] = 1
	}
	return Box(lo, hi)
}

// Interval returns the one-dimensional polytope [lo, hi].
func Interval(lo, hi float64) *Polytope {
	return Box(Vector{lo}, Vector{hi})
}

// Dim returns the dimension of the ambient space.
func (p *Polytope) Dim() int { return p.dim }

// Constraints returns the halfspaces defining p. The returned slice must
// not be modified.
func (p *Polytope) Constraints() []Halfspace { return p.hs }

// NumConstraints returns the number of stored halfspaces.
func (p *Polytope) NumConstraints() int { return len(p.hs) }

// Intersect returns the intersection of p and q.
//
// Both inputs uphold the package invariant that stored constraint lists
// are already deduplicated and free of trivial rows, so only q's rows
// are checked against p's (and each other) — a single allocation and no
// re-scan of p.
func (p *Polytope) Intersect(q *Polytope) *Polytope {
	if p.dim != q.dim {
		panic(fmt.Sprintf("geometry: intersect of polytopes with dims %d and %d", p.dim, q.dim))
	}
	hs := make([]Halfspace, len(p.hs), len(p.hs)+len(q.hs))
	copy(hs, p.hs)
	hs = appendDedup(hs, q.hs)
	return &Polytope{dim: p.dim, hs: hs}
}

// With returns p intersected with additional halfspaces.
func (p *Polytope) With(hs ...Halfspace) *Polytope {
	all := make([]Halfspace, len(p.hs), len(p.hs)+len(hs))
	copy(all, p.hs)
	all = appendDedup(all, hs)
	return &Polytope{dim: p.dim, hs: all}
}

// appendDedup appends the non-trivial members of extra to dst, skipping
// entries that duplicate (up to positive scaling) a constraint already
// present. dst is assumed deduplicated.
func appendDedup(dst, extra []Halfspace) []Halfspace {
	for _, h := range extra {
		if h.IsTrivial(1e-12) {
			continue
		}
		dup := false
		for _, k := range dst {
			if sameHalfspace(h, k) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, h)
		}
	}
	return dst
}

// ContainsPoint reports whether x satisfies all constraints within eps.
func (p *Polytope) ContainsPoint(x Vector, eps float64) bool {
	for _, h := range p.hs {
		if !h.Contains(x, eps) {
			return false
		}
	}
	return true
}

// String renders the polytope's constraints.
func (p *Polytope) String() string {
	if len(p.hs) == 0 {
		return fmt.Sprintf("R^%d", p.dim)
	}
	parts := make([]string, len(p.hs))
	for i, h := range p.hs {
		parts[i] = h.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// dedupHalfspaces removes exact duplicates (after normalization) and
// trivial constraints (satisfied by every point) while preserving order.
// It is a cheap syntactic reduction, not a semantic redundancy check.
func dedupHalfspaces(hs []Halfspace) []Halfspace {
	if len(hs) <= smallDedup {
		return dedupSmall(hs)
	}
	seen := make(map[string]bool, len(hs))
	out := make([]Halfspace, 0, len(hs))
	key := make([]byte, 0, 128)
	for _, h := range hs {
		if h.IsTrivial(1e-12) {
			continue
		}
		n := h.Normalize()
		key = key[:0]
		for _, w := range n.W {
			key = appendFloatKey(key, w)
		}
		key = appendFloatKey(key, n.B)
		k := string(key)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, h)
	}
	return out
}

// smallDedup is the constraint count below which quadratic, allocation-
// free duplicate detection beats map-based hashing.
const smallDedup = 24

func dedupSmall(hs []Halfspace) []Halfspace {
	out := make([]Halfspace, 0, len(hs))
	for _, h := range hs {
		if h.IsTrivial(1e-12) {
			continue
		}
		dup := false
		for _, k := range out {
			if sameHalfspace(h, k) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}

// sameHalfspace compares two inequalities up to positive scaling without
// allocating: a and b describe the same halfspace iff a.W*|b|∞ equals
// b.W*|a|∞ (and likewise for the bounds).
func sameHalfspace(a, b Halfspace) bool {
	if len(a.W) != len(b.W) {
		return false
	}
	na, nb := a.W.NormInf(), b.W.NormInf()
	if na < 1e-300 || nb < 1e-300 {
		return na < 1e-300 && nb < 1e-300 && math.Abs(a.B-b.B) <= 1e-10
	}
	const eps = 1e-10
	scale := eps * (1 + na*nb)
	for i := range a.W {
		if math.Abs(a.W[i]*nb-b.W[i]*na) > scale {
			return false
		}
	}
	return math.Abs(a.B*nb-b.B*na) <= scale
}

// appendFloatKey encodes a float rounded to ~12 significant digits for
// duplicate detection.
func appendFloatKey(b []byte, v float64) []byte {
	// Quantize the mantissa so that values differing only in the last
	// couple of bits collide.
	bits := math.Float64bits(v) &^ 0x3F
	for i := 0; i < 8; i++ {
		b = append(b, byte(bits>>(8*i)))
	}
	return b
}

// Chebyshev computes the Chebyshev center and radius of p: the center and
// radius of the largest inscribed ball. It returns ok=false when p is
// empty. When p is unbounded in a direction allowing arbitrarily large
// balls, radius is +Inf. Results are memoized on the polytope; the memo
// is safe against concurrent solvers and the underlying LP is solved
// (and counted) exactly once per polytope.
func (s *Solver) Chebyshev(p *Polytope) (center Vector, radius float64, ok bool) {
	if m := p.cheb.Load(); m != nil {
		return m.center, m.radius, m.ok
	}
	p.chebMu.Lock()
	defer p.chebMu.Unlock()
	if m := p.cheb.Load(); m != nil {
		return m.center, m.radius, m.ok
	}
	center, radius, ok = s.chebyshevUncached(p)
	p.cheb.Store(&chebMemo{ok: ok, center: center, radius: radius})
	return center, radius, ok
}

// chebPeek returns the memoized Chebyshev result without computing it.
func (p *Polytope) chebPeek() *chebMemo { return p.cheb.Load() }

func (s *Solver) chebyshevUncached(p *Polytope) (center Vector, radius float64, ok bool) {
	d := p.dim
	// Fast path: a clearly infeasible system needs no LP.
	lo, hi, infeasible := s.screenSystem(p.hs, d)
	if infeasible {
		s.Stats.LPs++
		s.Stats.FastPathLPs++
		return nil, 0, false
	}
	// Fast path: for purely axis-aligned systems the Chebyshev ball has
	// a closed form — the interval box's midpoint and smallest half-
	// width. Only conclusive (clearly nonempty) boxes are taken.
	if c, r, conclusive := s.chebyshevAxisAligned(p.hs, lo, hi); conclusive {
		s.Stats.LPs++
		s.Stats.FastPathLPs++
		return c, r, true
	}
	// Variables (x, r); maximize r subject to W·x + ||W||2 * r <= B and
	// r >= 0. The transformed system lives in solver scratch; newTableau
	// copies it before the next LP could reuse the buffer.
	hs := grow(&s.scratchHalfspaces, len(p.hs)+1)
	backing := grow(&s.scratchChebBacking, (len(p.hs)+2)*(d+1))
	for i, h := range p.hs {
		w := Vector(backing[i*(d+1) : (i+1)*(d+1)])
		copy(w, h.W)
		w[d] = h.W.Norm2()
		hs[i] = Halfspace{W: w, B: h.B}
	}
	wr := Vector(backing[len(p.hs)*(d+1) : (len(p.hs)+1)*(d+1)])
	for i := range wr {
		wr[i] = 0
	}
	wr[d] = -1
	hs[len(p.hs)] = Halfspace{W: wr, B: 0} // r >= 0
	obj := Vector(backing[(len(p.hs)+1)*(d+1) : (len(p.hs)+2)*(d+1)])
	for i := range obj {
		obj[i] = 0
	}
	obj[d] = 1
	res := s.Maximize(obj, hs)
	switch res.Status {
	case LPInfeasible:
		return nil, 0, false
	case LPUnbounded:
		// Need any feasible point for the center.
		fp := s.FeasiblePoint(p.hs, d)
		if fp.Status != LPOptimal {
			return nil, 0, false
		}
		return fp.X, math.Inf(1), true
	case LPMaxIter:
		// Conservative: report feasible with unknown radius.
		fp := s.FeasiblePoint(p.hs, d)
		if fp.Status != LPOptimal {
			return nil, 0, false
		}
		return fp.X, 0, true
	}
	return Vector(res.X[:d]).Clone(), res.Value, true
}

// chebyshevAxisAligned computes the exact Chebyshev ball of a system
// whose rows are all axis-aligned (a box): the interval midpoint and
// the smallest half-width. conclusive is false when the system has a
// general row, or the box is borderline empty — those fall back to the
// LP. lo and hi are the interval bounds of hs (screenSystem).
func (s *Solver) chebyshevAxisAligned(hs []Halfspace, lo, hi []float64) (Vector, float64, bool) {
	for _, h := range hs {
		if h.W.NormInf() <= s.Eps {
			// The tableau treats these rows as trivial or degenerate-
			// infeasible (newTableau's IsTrivial/IsInfeasible); mirror it.
			if h.B < -s.Eps {
				return nil, 0, false // degenerate infeasible row: let the LP decide
			}
			continue
		}
		if axisVar(h.W) < 0 {
			return nil, 0, false
		}
	}
	dim := len(lo)
	radius := math.Inf(1)
	for i := 0; i < dim; i++ {
		if hw := (hi[i] - lo[i]) / 2; hw < radius {
			radius = hw
		}
	}
	if !math.IsInf(radius, 1) && radius <= fastMargin*boundScale(lo, hi) {
		// Thin or borderline-empty boxes keep the LP's tolerance
		// behavior.
		return nil, 0, false
	}
	c := NewVector(dim)
	for i := 0; i < dim; i++ {
		l, h := lo[i], hi[i]
		switch {
		case math.IsInf(l, -1) && math.IsInf(h, 1):
			c[i] = 0
		case math.IsInf(l, -1):
			c[i] = h - math.Max(radiusOr(radius, 1), 1)
		case math.IsInf(h, 1):
			c[i] = l + math.Max(radiusOr(radius, 1), 1)
		default:
			c[i] = (l + h) / 2
		}
	}
	return c, radius, true
}

// radiusOr returns r when finite, fallback otherwise.
func radiusOr(r, fallback float64) float64 {
	if math.IsInf(r, 1) {
		return fallback
	}
	return r
}

// IsFullDim reports whether p contains a ball of radius larger than
// s.RadiusTol, i.e. whether p is "meaningfully" full-dimensional. This
// is the emptiness predicate used by region difference and cover checks.
func (s *Solver) IsFullDim(p *Polytope) bool {
	_, r, ok := s.Chebyshev(p)
	return ok && r > s.RadiusTol
}

// BallCertifiesFullDim reports whether the (memoized) Chebyshev ball of
// base shrunk by the margins of the additional halfspaces certifies that
// base ∩ hs is full-dimensional, without solving an LP for the cut
// polytope: the ball of radius min(r, margins) around the center lies
// inside the intersection. A false result is inconclusive — callers fall
// back to IsFullDim on the cut polytope.
func (s *Solver) BallCertifiesFullDim(base *Polytope, hs ...Halfspace) bool {
	c, r, ok := s.Chebyshev(base)
	if !ok || math.IsInf(r, 1) {
		return false
	}
	for _, h := range hs {
		n := h.W.Norm2()
		if n < 1e-300 {
			if h.B < 0 {
				return false
			}
			continue
		}
		margin := (h.B - h.W.Dot(c)) / n
		if margin < r {
			r = margin
		}
		if r <= s.RadiusTol {
			return false
		}
	}
	return r > s.RadiusTol
}

// SupportValue returns max w·x over p. The boolean result is false when
// the maximum does not exist (empty polytope, unbounded direction, or
// solver failure); in that case bounded distinguishes emptiness
// (bounded=false means unbounded above).
func (s *Solver) SupportValue(p *Polytope, w Vector) (val float64, ok bool, unbounded bool) {
	res := s.Maximize(w, p.hs)
	switch res.Status {
	case LPOptimal:
		return res.Value, true, false
	case LPUnbounded:
		return 0, false, true
	default:
		return 0, false, false
	}
}

// Contains reports whether q is a subset of p (within tolerance), by
// checking that every constraint of p is valid over q. An empty q is
// contained in everything. The support values over q share one phase-1
// basis (see supportSolver), so only the first of the up to
// len(p.hs)+1 linear programs pays the feasibility pivots.
func (s *Solver) Contains(p, q *Polytope) bool {
	// Fast rejection: if q's (memoized) Chebyshev center is known and
	// lies outside p, q cannot be a subset.
	if m := q.chebPeek(); m != nil && m.ok && !p.ContainsPoint(m.center, 1e-7) {
		return false
	}
	ss := s.newSupportSolver(q.hs, q.dim)
	if ss.Empty() {
		return true
	}
	for _, h := range p.hs {
		val, ok, unbounded := ss.Value(h.W)
		if unbounded {
			return false
		}
		if !ok {
			return false
		}
		if val > h.B+1e-7 {
			return false
		}
	}
	return true
}

// Vertices1D returns the endpoints of a one-dimensional polytope
// (interval), useful for rendering experiment output. ok is false when
// p is not one-dimensional, empty, or unbounded.
func (s *Solver) Vertices1D(p *Polytope) (lo, hi float64, ok bool) {
	if p.dim != 1 {
		return 0, 0, false
	}
	vhi, okHi, _ := s.SupportValue(p, Vector{1})
	vlo, okLo, _ := s.SupportValue(p, Vector{-1})
	if !okHi || !okLo {
		return 0, 0, false
	}
	return -vlo, vhi, true
}

// SamplePointsInBox returns a deterministic grid of points covering the
// bounding box [lo,hi], at most cap points, used for relevance points
// (third refinement of Section 6.2).
func SamplePointsInBox(lo, hi Vector, perDim, capTotal int) []Vector {
	dim := len(lo)
	if perDim < 1 {
		perDim = 1
	}
	total := 1
	for i := 0; i < dim; i++ {
		total *= perDim
		if total > capTotal {
			total = capTotal
			break
		}
	}
	pts := make([]Vector, 0, total)
	idx := make([]int, dim)
	for {
		x := NewVector(dim)
		for i := 0; i < dim; i++ {
			if perDim == 1 {
				x[i] = (lo[i] + hi[i]) / 2
			} else {
				x[i] = lo[i] + (hi[i]-lo[i])*float64(idx[i])/float64(perDim-1)
			}
		}
		pts = append(pts, x)
		if len(pts) >= capTotal {
			break
		}
		// Advance odometer.
		i := 0
		for ; i < dim; i++ {
			idx[i]++
			if idx[i] < perDim {
				break
			}
			idx[i] = 0
		}
		if i == dim {
			break
		}
	}
	return pts
}

// BoundingBox computes per-dimension bounds of p via 2*dim support LPs
// sharing one phase-1 basis. ok is false if p is empty or unbounded in
// some direction.
func (s *Solver) BoundingBox(p *Polytope) (lo, hi Vector, ok bool) {
	d := p.dim
	lo, hi = NewVector(d), NewVector(d)
	ss := s.newSupportSolver(p.hs, d)
	w := NewVector(d)
	for i := 0; i < d; i++ {
		w[i] = 1
		vhi, okHi, _ := ss.Value(w)
		w[i] = -1
		vlo, okLo, _ := ss.Value(w)
		w[i] = 0
		if !okHi || !okLo {
			return nil, nil, false
		}
		lo[i], hi[i] = -vlo, vhi
	}
	return lo, hi, true
}
