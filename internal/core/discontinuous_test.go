package core

import (
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// TestDiscontinuousCostFunctions: Section 2 notes that "PWL cost
// functions may have discontinuities between regions in which they are
// linear" — e.g. a plan whose cost jumps when a hash table stops
// fitting in memory. RRPA must handle plans whose dominance flips at a
// jump point.
func TestDiscontinuousCostFunctions(t *testing.T) {
	space := geometry.Interval(0, 1)
	// Plan "cliff": time 1 on [0, 0.5], jumps to 10 on [0.5, 1]
	// (discontinuous at 0.5); fees constant 1.
	cliff := pwl.NewMulti(
		pwl.NewFunction(
			pwl.Piece{Region: geometry.Interval(0, 0.5), W: geometry.Vector{0}, B: 1},
			pwl.Piece{Region: geometry.Interval(0.5, 1), W: geometry.Vector{0}, B: 10},
		),
		pwl.Constant(space, 1),
	)
	// Plan "steady": time 2 everywhere, fees 2.
	steady := pwl.NewMulti(pwl.Constant(space, 2), pwl.Constant(space, 2))
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "cliff", Cost: cliff},
		{Op: "steady", Cost: steady},
	})
	if len(res.Plans) != 2 {
		t.Fatalf("PPS size = %d, want 2", len(res.Plans))
	}
	byName := planNames(res)
	// cliff dominates steady on [0, 0.5] (1 <= 2 on time, 1 <= 2 fees);
	// steady is better on time beyond the jump but worse on fees, so
	// both stay relevant there... check the relevance regions.
	if !byName["cliff"].RR.Contains(geometry.Vector{0.25}, 1e-9) {
		t.Error("cliff should be relevant before the jump")
	}
	// steady is dominated before the jump (strictly worse on both).
	if byName["steady"].RR.Contains(geometry.Vector{0.25}, 1e-9) {
		t.Error("steady should be dominated before the jump")
	}
	if !byName["steady"].RR.Contains(geometry.Vector{0.75}, 1e-9) {
		t.Error("steady should be relevant after the jump (faster there)")
	}
	// Fronts flip across the discontinuity.
	ctx := geometry.NewSolver(geometry.Config{})
	algebra := NewPWLAlgebra(ctx, 2)
	front := res.ParetoFrontAt(algebra, geometry.Vector{0.25})
	if len(front) != 1 || front[0].Plan.Op != "cliff" {
		t.Errorf("front before jump = %v, want just cliff", front)
	}
	front = res.ParetoFrontAt(algebra, geometry.Vector{0.75})
	if len(front) != 2 {
		t.Errorf("front after jump has %d plans, want 2 (time/fees tradeoff)", len(front))
	}
}

// TestBufferSpaceParameter: parameters need not be selectivities — the
// classical PQ literature also parameterizes on available buffer space
// (Section 1, Scenario 2). Model a plan whose cost falls with available
// buffer pages against a buffer-independent plan, on a non-unit
// parameter domain.
func TestBufferSpaceParameter(t *testing.T) {
	// Parameter: buffer pages in [16, 512].
	space := geometry.Interval(16, 512)
	memSensitive := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{-0.01}, 6), // time 6 - 0.01*pages
		pwl.Constant(space, 1),
	)
	memOblivious := pwl.NewMulti(
		pwl.Constant(space, 3.5),
		pwl.Constant(space, 1),
	)
	res := staticOptimize(t, space, 2, []Alternative{
		{Op: "memSensitive", Cost: memSensitive},
		{Op: "memOblivious", Cost: memOblivious},
	})
	if len(res.Plans) != 2 {
		t.Fatalf("PPS size = %d, want 2", len(res.Plans))
	}
	byName := planNames(res)
	// Crossover at pages = 250: memSensitive wins above, loses below.
	if byName["memSensitive"].RR.Contains(geometry.Vector{100}, 1e-9) {
		t.Error("memSensitive should be dominated at 100 pages")
	}
	if !byName["memSensitive"].RR.Contains(geometry.Vector{400}, 1e-9) {
		t.Error("memSensitive should be relevant at 400 pages")
	}
	if !byName["memOblivious"].RR.Contains(geometry.Vector{100}, 1e-9) {
		t.Error("memOblivious should be relevant at 100 pages")
	}
}
