package baseline

import (
	"fmt"

	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// PointwiseAlgebra is an exact, LP-free cost algebra that represents a
// cost function by its values at a fixed list of sample points. It
// supports sum-accumulated metrics (the cloud model's semantics) and is
// used to enumerate ground-truth plan costs cheaply when validating
// RRPA's completeness: because both the optimizer and the enumeration
// consume the same PWL step costs, values agree up to floating-point
// error while enumeration avoids all geometric work.
//
// Dom is not supported: PointwiseAlgebra is for enumeration and
// evaluation only, not for pruning.
type PointwiseAlgebra struct {
	Points []geometry.Vector
}

type pointwiseCost struct {
	vals []geometry.Vector // cost vector per sample point
}

// Accumulate implements core.Algebra for sum accumulation.
func (a *PointwiseAlgebra) Accumulate(step, c1, c2 core.Cost) core.Cost {
	s := a.toPointwise(step)
	v1 := a.toPointwise(c1)
	v2 := a.toPointwise(c2)
	out := make([]geometry.Vector, len(a.Points))
	for i := range a.Points {
		out[i] = s.vals[i].Add(v1.vals[i]).Add(v2.vals[i])
	}
	return &pointwiseCost{vals: out}
}

// Eval implements core.Algebra; x must be one of the sample points.
func (a *PointwiseAlgebra) Eval(c core.Cost, x geometry.Vector) geometry.Vector {
	pc := a.toPointwise(c)
	for i, p := range a.Points {
		if p.Equal(x, 1e-12) {
			return pc.vals[i]
		}
	}
	panic(fmt.Sprintf("baseline: point %v is not a registered sample point", x))
}

// EvalAt returns the cost vector of c at Points[i], without Eval's
// search for the point.
func (a *PointwiseAlgebra) EvalAt(c core.Cost, i int) geometry.Vector {
	return a.toPointwise(c).vals[i]
}

// Dom is unsupported.
func (a *PointwiseAlgebra) Dom(c1, c2 core.Cost) []*geometry.Polytope {
	panic("baseline: PointwiseAlgebra does not support dominance regions")
}

// toPointwise converts PWL step costs lazily; pointwise costs pass
// through.
func (a *PointwiseAlgebra) toPointwise(c core.Cost) *pointwiseCost {
	switch v := c.(type) {
	case *pointwiseCost:
		return v
	case *pwl.Multi:
		vals := make([]geometry.Vector, len(a.Points))
		for i, p := range a.Points {
			vec, _ := v.Eval(p)
			vals[i] = vec
		}
		return &pointwiseCost{vals: vals}
	}
	panic(fmt.Sprintf("baseline: unsupported cost type %T", c))
}

var _ core.Algebra = (*PointwiseAlgebra)(nil)
