// Package geometry provides the computational-geometry substrate for
// multi-objective parametric query optimization: vectors, halfspaces,
// convex polytopes in H-representation, a dense two-phase simplex solver
// for the small linear programs the optimizer issues, region difference,
// and convexity recognition for unions of polytopes (Bemporad et al.).
//
// All operations that solve linear programs take a *Solver, which carries
// numerical tolerances and counters. The LP counter is surfaced by the
// optimizer as the "number of solved linear programs" metric reported in
// Figure 12 of the paper.
package geometry

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a point or direction in R^d.
type Vector []float64

// NewVector returns a zero vector of the given dimension.
func NewVector(dim int) Vector { return make(Vector, dim) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the inner product of v and w. The vectors must have equal
// length.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("geometry: dot of vectors with dims %d and %d", len(v), len(w)))
	}
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	c := v.Clone()
	for i := range c {
		c[i] += w[i]
	}
	return c
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	c := v.Clone()
	for i := range c {
		c[i] -= w[i]
	}
	return c
}

// Scale returns s*v as a new vector.
func (v Vector) Scale(s float64) Vector {
	c := v.Clone()
	for i := range c {
		c[i] *= s
	}
	return c
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute component of v.
func (v Vector) NormInf() float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// IsZero reports whether every component of v is within eps of zero.
func (v Vector) IsZero(eps float64) bool {
	for _, x := range v {
		if math.Abs(x) > eps {
			return false
		}
	}
	return true
}

// Equal reports whether v and w agree component-wise within eps.
func (v Vector) Equal(w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// ParetoFront returns, in their original order, the items whose cost
// vectors are Pareto-optimal among all items' costs. An item is dropped
// when another item's cost is at most its own on every component
// (within 1e-12) and either differs from it or, being equal within
// 1e-12, comes earlier — so among equal costs only the first is kept.
// The result is nil when no item survives.
func ParetoFront[T any](items []T, cost func(T) Vector) []T {
	const tol = 1e-12
	var front []T
	for i, item := range items {
		c := cost(item)
		dominated := false
		for j, other := range items {
			if i == j {
				continue
			}
			oc := cost(other)
			if weaklyDominates(oc, c, tol) && (j < i || !oc.Equal(c, tol)) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, item)
		}
	}
	return front
}

// weaklyDominates reports a[i] <= b[i] + tol on every component.
func weaklyDominates(a, b Vector, tol float64) bool {
	for i := range a {
		if a[i] > b[i]+tol {
			return false
		}
	}
	return true
}

// String renders the vector as "(x1, x2, ...)".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// SolveLinearSystem solves the square system A·x = b by Gaussian
// elimination with partial pivoting. It returns false when A is singular
// (within a relative tolerance). A and b are not modified.
func SolveLinearSystem(a [][]float64, b []float64) (Vector, bool) {
	n := len(a)
	if n == 0 {
		return Vector{}, true
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			if f == 0 { //mpq:floatexact exact-zero skip in Gaussian elimination: a zero factor makes the row update a no-op
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}
