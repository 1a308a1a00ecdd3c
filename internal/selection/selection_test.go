package selection

import (
	"errors"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
)

func candidates() []Candidate {
	space := geometry.Interval(0, 1)
	mk := func(op string, timeW, timeB, fees float64) Candidate {
		return Candidate{
			Plan: plan.Scan(0, op),
			Cost: pwl.NewMulti(
				pwl.Linear(space, geometry.Vector{timeW}, timeB),
				pwl.Constant(space, fees),
			),
		}
	}
	return []Candidate{
		mk("fast-expensive", 0, 1, 10), // time 1, fees 10
		mk("slow-cheap", 2, 2, 1),      // time 2+2x, fees 1
		mk("balanced", 1, 1.5, 4),      // time 1.5+x, fees 4
		mk("dominated", 3, 4, 12),      // never optimal
	}
}

func TestFrontier(t *testing.T) {
	x := geometry.Vector{0.5}
	front := Frontier(candidates(), x)
	// Costs at 0.5: fast (1,10), cheap (3,1), balanced (2,4),
	// dominated (5.5,12). The first three are Pareto-optimal.
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3: %v", len(front), front)
	}
	// Sorted by time.
	if front[0].Plan.Op != "fast-expensive" || front[2].Plan.Op != "slow-cheap" {
		t.Errorf("front order wrong: %v", front)
	}
	for _, c := range front {
		if c.Plan.Op == "dominated" {
			t.Error("dominated plan on the frontier")
		}
	}
}

func TestFrontierRespectsRelevanceRegions(t *testing.T) {
	ctx := geometry.NewSolver(geometry.Config{})
	cands := candidates()
	// Restrict the fast plan to x <= 0.3.
	rr := region.New(ctx, geometry.Interval(0, 1), region.Options{})
	rr.Subtract(ctx, geometry.Interval(0.3, 1))
	cands[0].RR = rr
	front := Frontier(cands, geometry.Vector{0.5})
	for _, c := range front {
		if c.Plan.Op == "fast-expensive" {
			t.Error("plan outside its relevance region selected")
		}
	}
	front = Frontier(cands, geometry.Vector{0.1})
	found := false
	for _, c := range front {
		if c.Plan.Op == "fast-expensive" {
			found = true
		}
	}
	if !found {
		t.Error("plan missing inside its relevance region")
	}
}

func TestWeightedSum(t *testing.T) {
	x := geometry.Vector{0.5}
	// Heavily weight time: the fast plan wins.
	c, err := WeightedSum(candidates(), x, []float64{10, 0.01})
	if err != nil || c.Plan.Op != "fast-expensive" {
		t.Errorf("time-weighted pick = %v err=%v", c.Plan, err)
	}
	// Heavily weight fees: the cheap plan wins.
	c, err = WeightedSum(candidates(), x, []float64{0.01, 10})
	if err != nil || c.Plan.Op != "slow-cheap" {
		t.Errorf("fee-weighted pick = %v err=%v", c.Plan, err)
	}
	if _, err := WeightedSum(candidates(), x, []float64{0, 0}); err == nil {
		t.Error("zero weights accepted")
	}
	if _, err := WeightedSum(candidates(), x, []float64{-1, 1}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestMinimizeSubjectTo(t *testing.T) {
	x := geometry.Vector{0.5}
	// Cheapest plan within a latency budget of 2.5s: balanced (time 2,
	// fees 4) vs fast (time 1, fees 10); cheap has time 3 — excluded.
	c, err := MinimizeSubjectTo(candidates(), x, 1, []Bound{{Metric: 0, Max: 2.5}})
	if err != nil || c.Plan.Op != "balanced" {
		t.Errorf("budgeted pick = %v err=%v", c.Plan, err)
	}
	// Impossible budget.
	_, err = MinimizeSubjectTo(candidates(), x, 1, []Bound{{Metric: 0, Max: 0.1}})
	if !errors.Is(err, ErrNoFeasiblePlan) {
		t.Errorf("err = %v, want ErrNoFeasiblePlan", err)
	}
	// No bounds: global minimum of fees.
	c, err = MinimizeSubjectTo(candidates(), x, 1, nil)
	if err != nil || c.Plan.Op != "slow-cheap" {
		t.Errorf("unbounded pick = %v err=%v", c.Plan, err)
	}
}

func TestLexicographic(t *testing.T) {
	x := geometry.Vector{0.5}
	c, err := Lexicographic(candidates(), x, []int{0, 1})
	if err != nil || c.Plan.Op != "fast-expensive" {
		t.Errorf("time-first pick = %v err=%v", c.Plan, err)
	}
	c, err = Lexicographic(candidates(), x, []int{1, 0})
	if err != nil || c.Plan.Op != "slow-cheap" {
		t.Errorf("fees-first pick = %v err=%v", c.Plan, err)
	}
	// Tie on the first metric broken by the second.
	space := geometry.Interval(0, 1)
	tie := []Candidate{
		{Plan: plan.Scan(0, "a"), Cost: pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 5))},
		{Plan: plan.Scan(0, "b"), Cost: pwl.NewMulti(pwl.Constant(space, 1), pwl.Constant(space, 3))},
	}
	c, err = Lexicographic(tie, x, []int{0, 1})
	if err != nil || c.Plan.Op != "b" {
		t.Errorf("tie-break pick = %v err=%v", c.Plan, err)
	}
}

// TestFrontierDeterministicOnTies: plans tied on the first metric (but
// Pareto-incomparable on the remaining ones, which needs at least three
// metrics) must come back in the same lexicographic cost order for
// every candidate order. Regression test for the non-stable
// first-metric-only sort.
func TestFrontierDeterministicOnTies(t *testing.T) {
	space := geometry.Interval(0, 1)
	mk := func(op string, costs ...float64) Candidate {
		comps := make([]*pwl.Function, len(costs))
		for i, c := range costs {
			comps[i] = pwl.Constant(space, c)
		}
		return Candidate{Plan: plan.Scan(0, op), Cost: pwl.NewMulti(comps...)}
	}
	// All tied on metric 0; pairwise incomparable on metrics 1 and 2.
	cands := []Candidate{
		mk("a", 1, 5, 1),
		mk("b", 1, 1, 5),
		mk("c", 1, 3, 3),
		mk("d", 2, 0, 0), // untied control, sorts last
	}
	x := geometry.Vector{0.5}
	want := []string{"b", "c", "a", "d"} // lexicographic by full cost vector
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	for _, perm := range perms {
		shuffled := make([]Candidate, len(cands))
		for i, p := range perm {
			shuffled[i] = cands[p]
		}
		front := Frontier(shuffled, x)
		if len(front) != len(want) {
			t.Fatalf("perm %v: front size = %d, want %d", perm, len(front), len(want))
		}
		for i, c := range front {
			if c.Plan.Op != want[i] {
				t.Fatalf("perm %v: front order = %v, want %v", perm, frontOps(front), want)
			}
		}
	}
}

func frontOps(front []Choice) []string {
	ops := make([]string, len(front))
	for i, c := range front {
		ops[i] = c.Plan.Op
	}
	return ops
}

func TestEmptyCandidates(t *testing.T) {
	x := geometry.Vector{0.5}
	if got := Frontier(nil, x); len(got) != 0 {
		t.Error("frontier of no candidates not empty")
	}
	if _, err := WeightedSum(nil, x, []float64{1}); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Error("weighted sum with no candidates should fail")
	}
	if _, err := Lexicographic(nil, x, []int{0}); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Error("lexicographic with no candidates should fail")
	}
}
