package geometry

import (
	"fmt"
	"strings"
)

// Halfspace is the set of solutions to the linear inequality W·x <= B.
// A halfspace with a zero weight vector is degenerate: it is either the
// whole space (B >= 0) or empty (B < 0).
type Halfspace struct {
	W Vector
	B float64
}

// Dim returns the dimension of the ambient space.
func (h Halfspace) Dim() int { return len(h.W) }

// Contains reports whether x satisfies the inequality within eps.
func (h Halfspace) Contains(x Vector, eps float64) bool {
	return h.W.Dot(x) <= h.B+eps
}

// Flip returns the halfspace describing the closed complement,
// W·x >= B, normalized to -W·x <= -B.
func (h Halfspace) Flip() Halfspace {
	return Halfspace{W: h.W.Scale(-1), B: -h.B}
}

// Normalize scales the inequality so that the weight vector has unit
// infinity norm, which keeps the simplex tableau well conditioned.
// Degenerate (zero-weight) halfspaces are returned unchanged.
func (h Halfspace) Normalize() Halfspace {
	m := h.W.NormInf()
	if m < 1e-300 {
		return h
	}
	return Halfspace{W: h.W.Scale(1 / m), B: h.B / m}
}

// IsTrivial reports whether the halfspace is satisfied by every point
// (zero weights and non-negative bound, within eps).
func (h Halfspace) IsTrivial(eps float64) bool {
	return h.W.IsZero(eps) && h.B >= -eps
}

// IsInfeasible reports whether the halfspace excludes every point
// (zero weights and negative bound beyond eps).
func (h Halfspace) IsInfeasible(eps float64) bool {
	return h.W.IsZero(eps) && h.B < -eps
}

// String renders the halfspace as a linear inequality.
func (h Halfspace) String() string {
	var sb strings.Builder
	first := true
	for i, w := range h.W {
		if w == 0 {
			continue
		}
		if !first && w >= 0 {
			sb.WriteString(" + ")
		} else if w < 0 {
			if first {
				sb.WriteString("-")
			} else {
				sb.WriteString(" - ")
			}
			w = -w
		}
		if w == 1 {
			fmt.Fprintf(&sb, "x%d", i+1)
		} else {
			fmt.Fprintf(&sb, "%g*x%d", w, i+1)
		}
		first = false
	}
	if first {
		sb.WriteString("0")
	}
	fmt.Fprintf(&sb, " <= %g", h.B)
	return sb.String()
}
