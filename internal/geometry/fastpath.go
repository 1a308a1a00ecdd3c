package geometry

import "math"

// LP fast paths: two shortcuts in front of the Chebyshev LP (see
// Solver.Chebyshev). They only fire on conclusive evidence — every
// margin below is chosen so that borderline systems (within the solver
// tolerances) fall through to the simplex, keeping fast-path and
// simplex answers consistent.
//
// Both work on the interval relaxation of the halfspace system:
// axis-aligned constraints (a single nonzero weight) induce per-variable
// bounds; general rows are then tested against the resulting bounding
// box via interval arithmetic. Because the box is a relaxation of the
// feasible set, "empty box" and "row violated everywhere on the box"
// are sound for infeasibility; a system of axis rows alone is its box,
// whose Chebyshev ball has a closed form. See DESIGN.md, "LP fast
// paths".

// fastMargin is the conclusiveness margin of the fast paths. It sits
// well above the simplex feasibility tolerance (1e-7 on normalized
// rows), so they never decide a system the simplex would consider
// borderline.
const fastMargin = 1e-6

// axisVar returns the index of the single nonzero weight of w, or -1
// when w has zero or more than one nonzero weight.
func axisVar(w Vector) int {
	idx := -1
	for j, v := range w {
		if v != 0 { //mpq:floatexact structural sparsity test on caller-provided weights; any nonzero entry counts, no tolerance is meaningful
			if idx >= 0 {
				return -1
			}
			idx = j
		}
	}
	return idx
}

// intervalBounds derives per-variable bounds from the axis-aligned rows
// of hs into the solver scratch. Missing bounds are ±Inf. Rows whose
// weight norm is within the solver tolerance are skipped: the tableau
// treats them as trivial or degenerate-infeasible (see newTableau), so
// deriving a hard bound from them would let the fast paths contradict
// the simplex.
func (s *Solver) intervalBounds(hs []Halfspace, dim int) (lo, hi []float64) {
	lo = grow(&s.scratchLo, dim)
	hi = grow(&s.scratchHi, dim)
	for i := 0; i < dim; i++ {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	for _, h := range hs {
		if h.W.NormInf() <= s.Eps {
			continue
		}
		j := axisVar(h.W)
		if j < 0 {
			continue
		}
		w := h.W[j]
		if w > 0 {
			if b := h.B / w; b < hi[j] {
				hi[j] = b
			}
		} else {
			if b := h.B / w; b > lo[j] {
				lo[j] = b
			}
		}
	}
	return lo, hi
}

// rowIntervalMin returns the minimum of w·x over the box [lo, hi]
// (-Inf when an unbounded direction contributes).
func rowIntervalMin(w Vector, lo, hi []float64) float64 {
	min := 0.0
	for j, v := range w {
		switch {
		case v > 0:
			min += v * lo[j]
		case v < 0:
			min += v * hi[j]
		}
	}
	return min
}

// boundScale is the magnitude scale of the finite interval bounds, used
// to make the screen margins relative.
func boundScale(lo, hi []float64) float64 {
	s := 1.0
	for i := range lo {
		if v := math.Abs(lo[i]); !math.IsInf(v, 1) && v > s {
			s = v
		}
		if v := math.Abs(hi[i]); !math.IsInf(v, 1) && v > s {
			s = v
		}
	}
	return s
}

// screenSystem reports whether the interval relaxation of hs proves the
// system infeasible. It returns the interval bounds too (solver
// scratch, valid until the next screen), for chebyshevAxisAligned.
func (s *Solver) screenSystem(hs []Halfspace, dim int) (lo, hi []float64, infeasible bool) {
	lo, hi = s.intervalBounds(hs, dim)
	tol := fastMargin * boundScale(lo, hi)
	for i := 0; i < dim; i++ {
		if lo[i]-hi[i] > tol {
			return lo, hi, true
		}
	}
	for _, h := range hs {
		n := h.W.NormInf()
		if n <= s.Eps || axisVar(h.W) >= 0 {
			continue // trivial or degenerate: the tableau decides; axis rows made the box
		}
		if rowIntervalMin(h.W, lo, hi)-h.B > tol*n {
			return lo, hi, true // violated everywhere on the relaxation
		}
	}
	return lo, hi, false
}
