package sampled

import (
	"context"
	"math"
	"testing"

	"mpq/internal/core"
	"mpq/internal/geometry"
)

func TestDomBoxes(t *testing.T) {
	a := NewAlgebra(geometry.Vector{0}, geometry.Vector{1}, 8, 2)
	// c1 = (x, 1), c2 = (0.5, 1): c1 dominates where x <= 0.5.
	c1 := Cost{F: func(x geometry.Vector) geometry.Vector { return geometry.Vector{x[0], 1} }}
	c2 := Cost{F: func(x geometry.Vector) geometry.Vector { return geometry.Vector{0.5, 1} }}
	boxes := a.Dom(c1, c2)
	if len(boxes) != 4 {
		t.Fatalf("got %d cells, want 4 (half of 8)", len(boxes))
	}
	for _, b := range boxes {
		if !b.ContainsPoint(geometry.Vector{0.1}, 1e-9) && !b.ContainsPoint(geometry.Vector{0.4}, 1e-9) &&
			!b.ContainsPoint(geometry.Vector{0.2}, 1e-9) && !b.ContainsPoint(geometry.Vector{0.45}, 1e-9) {
			// every box must be within [0, 0.5]
			c, _, _ := geometry.NewSolver(geometry.Config{}).Chebyshev(b)
			if c[0] > 0.5 {
				t.Errorf("dominance cell centered at %v beyond crossover", c)
			}
		}
	}
}

func TestAccumulateAndEval(t *testing.T) {
	a := NewAlgebra(geometry.Vector{0}, geometry.Vector{1}, 4, 2)
	c1 := Cost{F: func(x geometry.Vector) geometry.Vector { return geometry.Vector{1, 2} }}
	c2 := Cost{F: func(x geometry.Vector) geometry.Vector { return geometry.Vector{x[0], 0} }}
	step := Cost{F: func(x geometry.Vector) geometry.Vector { return geometry.Vector{0.5, 0.5} }}
	acc := a.Accumulate(step, c1, c2)
	v := a.Eval(acc, geometry.Vector{0.25})
	want := geometry.Vector{1.75, 2.5}
	if !v.Equal(want, 1e-12) {
		t.Errorf("accumulated = %v, want %v", v, want)
	}
}

// TestGenericRRPAWithSampledCosts runs the generic RRPA end to end on
// nonlinear (quadratic/exponential) cost closures — the algorithm of
// Section 5 without the PWL specialization.
func TestGenericRRPAWithSampledCosts(t *testing.T) {
	space := geometry.Interval(0, 1)
	algebra := NewAlgebra(geometry.Vector{0}, geometry.Vector{1}, 16, 2)
	// Three plans with nonlinear costs:
	// pA: time = x^2,       fees = 3          (best time for small x)
	// pB: time = e^x - 1,   fees = 2          (cheaper, slower for x>~0)
	// pC: time = x^2 + 1,   fees = 4          (dominated by pA everywhere)
	alts := []core.Alternative{
		{Op: "pA", Cost: Cost{F: func(x geometry.Vector) geometry.Vector {
			return geometry.Vector{x[0] * x[0], 3}
		}}},
		{Op: "pB", Cost: Cost{F: func(x geometry.Vector) geometry.Vector {
			return geometry.Vector{math.Exp(x[0]) - 1, 2}
		}}},
		{Op: "pC", Cost: Cost{F: func(x geometry.Vector) geometry.Vector {
			return geometry.Vector{x[0]*x[0] + 1, 4}
		}}},
	}
	schema := core.StaticSchema(1, []float64{0}, []float64{1})
	model := &core.StaticModel{ParamSpace: space, Metrics: []string{"time", "fees"}, Plans: alts}
	opts := core.DefaultOptions()
	opts.Algebra = algebra
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	names := map[string]bool{}
	for _, p := range res.Plans {
		names[p.Plan.Op] = true
	}
	if !names["pA"] || !names["pB"] {
		t.Errorf("expected pA and pB in result, got %v", names)
	}
	if names["pC"] {
		t.Error("dominated pC survived")
	}
}
