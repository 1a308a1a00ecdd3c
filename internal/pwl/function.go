// Package pwl implements piecewise-linear (PWL) cost functions for
// multi-objective parametric query optimization, mirroring the data
// structures of Figure 9 in the paper: a multi-objective PWL cost
// function has one single-objective PWL component per cost metric; a
// single-objective PWL function is a set of linear pieces, each valid on
// a convex polytope of the parameter space.
//
// The package provides the elementary operations of Algorithm 3
// (accumulating cost functions, computing dominance regions) plus the
// accumulation variants mentioned in Section 6.1 (sum, minimum, maximum,
// weighted sum) and PWL approximation of arbitrary cost functions on
// simplicial grids, the standard technique of the parametric query
// optimization literature (Hulgeri & Sudarshan).
package pwl

import (
	"fmt"
	"math"
	"strings"

	"mpq/internal/geometry"
)

// Piece is a linear cost function W·x + B valid on a convex polytope of
// the parameter space (attributes reg, w, b of Figure 9).
type Piece struct {
	Region *geometry.Polytope
	W      geometry.Vector
	B      float64
}

// Eval evaluates the linear function of the piece (ignoring the region).
func (p Piece) Eval(x geometry.Vector) float64 { return p.W.Dot(x) + p.B }

// String renders the piece.
func (p Piece) String() string {
	return fmt.Sprintf("%s + %g on %s", p.W, p.B, p.Region)
}

// Function is a single-objective piecewise-linear cost function: a set of
// linear pieces whose regions have pairwise disjoint interiors and cover
// the function's domain.
//
// When cover is non-nil the pieces are asserted to exactly partition
// that polytope; two functions sharing the same cover pointer allow the
// combination operators to skip the geometric emptiness checks for
// cross pairs (see combine). Cost models exploit this by building all
// cost functions against one shared parameter-space polytope.
type Function struct {
	dim    int
	pieces []Piece
	cover  *geometry.Polytope
	// full is non-nil for restricted views (see Restrict): when no
	// restricted piece contains the evaluation point, Eval delegates to
	// the full function so results stay byte-identical to an
	// unrestricted scan.
	full *Function
}

// NewFunction builds a PWL function from pieces. At least one piece is
// required; all pieces must share the same parameter-space dimension.
func NewFunction(pieces ...Piece) *Function {
	if len(pieces) == 0 {
		panic("pwl: function with no pieces")
	}
	dim := len(pieces[0].W)
	for _, p := range pieces {
		if len(p.W) != dim || p.Region.Dim() != dim {
			panic("pwl: inconsistent piece dimensions")
		}
	}
	return &Function{dim: dim, pieces: pieces}
}

// Constant returns the PWL function with constant value c on domain.
func Constant(domain *geometry.Polytope, c float64) *Function {
	f := NewFunction(Piece{Region: domain, W: geometry.NewVector(domain.Dim()), B: c})
	f.cover = domain
	return f
}

// Linear returns the PWL function W·x + B on domain.
func Linear(domain *geometry.Polytope, w geometry.Vector, b float64) *Function {
	if len(w) != domain.Dim() {
		panic("pwl: weight dimension mismatch")
	}
	f := NewFunction(Piece{Region: domain, W: w.Clone(), B: b})
	f.cover = domain
	return f
}

// Dim returns the parameter-space dimension.
func (f *Function) Dim() int { return f.dim }

// Cover returns the polytope the pieces exactly partition, or nil when
// unknown.
func (f *Function) Cover() *geometry.Polytope { return f.cover }

// WithCover asserts that the pieces of f exactly partition domain and
// returns a function carrying that annotation. The caller is responsible
// for the partition property; combination operators rely on it to skip
// redundant geometric checks.
func (f *Function) WithCover(domain *geometry.Polytope) *Function {
	return &Function{dim: f.dim, pieces: f.pieces, cover: domain}
}

// Pieces returns the linear pieces. The slice must not be modified.
func (f *Function) Pieces() []Piece { return f.pieces }

// Restrict returns a view of f that evaluates only the pieces at the
// given indices (which must be ascending positions into Pieces), falling
// back to the full function when none of them contains the evaluation
// point. Eval through the view is byte-identical to Eval on f whenever
// the dropped pieces provably do not contain the point within Eval's
// tolerance — the contract point-location indexes rely on: a piece may
// be dropped for a parameter-space cell only when one of its normalized
// constraints is violated beyond the tolerance everywhere in the cell.
// f must not itself be a restricted view.
func (f *Function) Restrict(keep []int) *Function {
	if f.full != nil {
		panic("pwl: Restrict of a restricted view")
	}
	pieces := make([]Piece, len(keep))
	for i, k := range keep {
		pieces[i] = f.pieces[k]
	}
	return &Function{dim: f.dim, pieces: pieces, full: f}
}

// NumPieces returns the number of linear pieces.
func (f *Function) NumPieces() int { return len(f.pieces) }

// Eval evaluates f at x by locating a piece whose region contains x. When
// x lies on a shared boundary any adjacent piece may be used. When no
// region contains x exactly (a numerical gap), the piece with the
// smallest maximum constraint violation is used and ok is false.
func (f *Function) Eval(x geometry.Vector) (val float64, ok bool) {
	const eps = geometry.CompareEps
	best := -1
	bestViolation := math.Inf(1)
	for i, p := range f.pieces {
		v := maxViolation(p.Region, x)
		if v <= eps {
			return p.Eval(x), true
		}
		if v < bestViolation {
			bestViolation = v
			best = i
		}
	}
	if f.full != nil {
		// Restricted view with the point outside every hinted piece:
		// delegate to the full function so both the fallback piece and
		// the not-ok outcome match an unrestricted scan exactly.
		return f.full.Eval(x)
	}
	if best < 0 {
		return 0, false
	}
	return f.pieces[best].Eval(x), false
}

// MustEval evaluates f at x and panics when x is far outside every piece.
func (f *Function) MustEval(x geometry.Vector) float64 {
	v, ok := f.Eval(x)
	if !ok {
		panic(fmt.Sprintf("pwl: evaluation at %v outside all pieces", x))
	}
	return v
}

func maxViolation(p *geometry.Polytope, x geometry.Vector) float64 {
	// Inlined h.Normalize().W.Dot(x) - n.B with the exact same float
	// operations but no per-constraint vector allocation — Eval is the
	// serving layer's hottest loop, and the two Normalize allocations
	// per constraint dominated pick cost.
	worst := 0.0
	for _, h := range p.Constraints() {
		m := h.W.NormInf()
		var v float64
		if m < 1e-300 {
			v = h.W.Dot(x) - h.B
		} else {
			s := 1 / m
			dot := 0.0
			for i, w := range h.W {
				dot += (w * s) * x[i]
			}
			v = dot - h.B/m
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// String renders the function piece by piece.
func (f *Function) String() string {
	parts := make([]string, len(f.pieces))
	for i, p := range f.pieces {
		parts[i] = p.String()
	}
	return "PWL[" + strings.Join(parts, " | ") + "]"
}

// Multi is a multi-objective PWL cost function: one single-objective
// component per cost metric (the comps relationship of Figure 9).
//
// A Multi may carry pending compaction (see WithPendingCompaction):
// its components are valid but not yet merged by Compact. Finish runs
// the merge in place; a Multi with nothing pending is never written,
// so it may be shared freely.
type Multi struct {
	comps   []*Function
	pending bool
}

// NewMulti builds a multi-objective function from per-metric components.
func NewMulti(comps ...*Function) *Multi {
	if len(comps) == 0 {
		panic("pwl: multi-objective function with no components")
	}
	dim := comps[0].Dim()
	for _, c := range comps {
		if c.Dim() != dim {
			panic("pwl: inconsistent component dimensions")
		}
	}
	return &Multi{comps: append([]*Function(nil), comps...)}
}

// NumMetrics returns the number of cost metrics.
func (m *Multi) NumMetrics() int { return len(m.comps) }

// Dim returns the parameter-space dimension.
func (m *Multi) Dim() int { return m.comps[0].Dim() }

// Component returns the single-objective function for metric i.
func (m *Multi) Component(i int) *Function { return m.comps[i] }

// WithPendingCompaction returns m marked for a later Compact of every
// component, which Finish performs.
func (m *Multi) WithPendingCompaction() *Multi {
	return &Multi{comps: m.comps, pending: true}
}

// Finish compacts every component of m on ctx if compaction is
// pending, and reports whether it was. The Multi must not be in
// concurrent use while Finish runs.
func (m *Multi) Finish(ctx *geometry.Solver) bool {
	if !m.pending {
		return false
	}
	comps := make([]*Function, len(m.comps))
	for i, c := range m.comps {
		comps[i] = Compact(ctx, c)
	}
	m.comps, m.pending = comps, false
	return true
}

// Eval evaluates all components at x.
func (m *Multi) Eval(x geometry.Vector) (geometry.Vector, bool) {
	return m.EvalInto(nil, x)
}

// EvalInto evaluates all components at x into dst, reusing its backing
// array when the capacity suffices (allocating otherwise). Values are
// identical to Eval's; selection's single-choice policies use this to
// scan large candidate sets without a cost-vector allocation per
// candidate.
func (m *Multi) EvalInto(dst geometry.Vector, x geometry.Vector) (geometry.Vector, bool) {
	if cap(dst) < len(m.comps) {
		dst = geometry.NewVector(len(m.comps))
	} else {
		dst = dst[:len(m.comps)]
	}
	allOK := true
	for i, c := range m.comps {
		v, ok := c.Eval(x)
		if !ok {
			allOK = false
		}
		dst[i] = v
	}
	return dst, allOK
}

// TotalPieces returns the summed piece count across components, a size
// measure used by optimizer statistics.
func (m *Multi) TotalPieces() int {
	n := 0
	for _, c := range m.comps {
		n += c.NumPieces()
	}
	return n
}

func (m *Multi) String() string {
	parts := make([]string, len(m.comps))
	for i, c := range m.comps {
		parts[i] = fmt.Sprintf("metric%d: %s", i, c)
	}
	return strings.Join(parts, "\n")
}
