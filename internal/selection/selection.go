// Package selection implements the run-time half of the MPQ workflow
// (Figure 2 of the paper): given a precomputed Pareto plan set, concrete
// parameter values, and user preferences, pick the plan to execute. No
// query optimization happens at run time.
//
// Three preference policies cover the scenarios of the paper's
// introduction: a weighted scalarization (Cloud users weighting money
// against time), bounded metrics with a minimized objective (a latency
// budget or a minimum result precision), and lexicographic preference
// order.
package selection

import (
	"errors"
	"fmt"
	"slices"

	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
)

// Candidate is a plan available for run-time selection.
type Candidate struct {
	Plan *plan.Node
	Cost *pwl.Multi
	// RR optionally restricts the candidate to its relevance region;
	// when nil the candidate is always considered.
	RR *region.Region
}

// Choice is a selected plan with its cost vector at the parameter
// point.
type Choice struct {
	Plan *plan.Node
	Cost geometry.Vector
}

// ErrNoFeasiblePlan is returned when constraints exclude every plan.
var ErrNoFeasiblePlan = errors.New("selection: no plan satisfies the constraints")

// Frontier evaluates all candidates at x and returns the Pareto-optimal
// choices sorted by the first metric — the tradeoff visualization shown
// to users in Scenario 1. Candidates whose relevance region excludes x
// are skipped (the relevance mapping of Section 2 guarantees the
// remaining plans cover the front).
func Frontier(candidates []Candidate, x geometry.Vector) []Choice {
	front := geometry.ParetoFront(Evaluate(candidates, x), func(c Choice) geometry.Vector { return c.Cost })
	// Stable sort with a full lexicographic cost tie-break: plans tied
	// on the first metric (possible with three or more metrics) must
	// come back in the same order on every run regardless of candidate
	// order, so that serving-layer responses are reproducible.
	slices.SortStableFunc(front, func(a, b Choice) int { return lexVecCmp(a.Cost, b.Cost) })
	return front
}

// lexVecCmp compares cost vectors lexicographically across all
// metrics; components that compare neither less nor greater (equal, or
// NaN) fall through to the next metric.
func lexVecCmp(a, b geometry.Vector) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// WeightedSum picks the plan minimizing the weighted sum of metric
// values at x. Weights must be non-negative and at least one positive.
func WeightedSum(candidates []Candidate, x geometry.Vector, weights []float64) (Choice, error) {
	positive := false
	for _, w := range weights {
		if w < 0 {
			return Choice{}, fmt.Errorf("selection: negative weight %v", w)
		}
		if w > 0 {
			positive = true
		}
	}
	if !positive {
		return Choice{}, errors.New("selection: all weights are zero")
	}
	// Stream over the relevant candidates with two reused cost buffers
	// instead of materializing the full evaluated list: same iteration
	// order and comparisons, so the winner (and its cost values) is
	// identical to the materialized scan.
	var cur, best geometry.Vector
	var bestPlan *plan.Node
	bestVal := 0.0
	for _, cand := range candidates {
		if cand.RR != nil && !cand.RR.Contains(x, ContainsEps) {
			continue
		}
		cur, _ = cand.Cost.EvalInto(cur, x)
		if v := scalarize(cur, weights); bestPlan == nil || v < bestVal {
			bestPlan, bestVal = cand.Plan, v
			cur, best = best, cur
		}
	}
	if bestPlan == nil {
		return Choice{}, ErrNoFeasiblePlan
	}
	return Choice{Plan: bestPlan, Cost: best}, nil
}

// Bound is an upper limit on one metric.
type Bound struct {
	Metric int
	Max    float64
}

// MinimizeSubjectTo picks the plan minimizing the given metric among
// plans satisfying all bounds at x — e.g. minimize fees subject to a
// latency budget, or minimize time subject to a precision-loss limit
// (Scenario 2).
func MinimizeSubjectTo(candidates []Candidate, x geometry.Vector, minimize int, bounds []Bound) (Choice, error) {
	var cur, best geometry.Vector
	var bestPlan *plan.Node
	for _, cand := range candidates {
		if cand.RR != nil && !cand.RR.Contains(x, ContainsEps) {
			continue
		}
		cur, _ = cand.Cost.EvalInto(cur, x)
		ok := true
		for _, b := range bounds {
			if cur[b.Metric] > b.Max+1e-12 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if bestPlan == nil || cur[minimize] < best[minimize] {
			bestPlan = cand.Plan
			cur, best = best, cur
		}
	}
	if bestPlan == nil {
		return Choice{}, ErrNoFeasiblePlan
	}
	return Choice{Plan: bestPlan, Cost: best}, nil
}

// Lexicographic picks the plan minimizing metrics in the given priority
// order, breaking ties by the next metric (within tolerance).
func Lexicographic(candidates []Candidate, x geometry.Vector, order []int) (Choice, error) {
	var cur, best geometry.Vector
	var bestPlan *plan.Node
	for _, cand := range candidates {
		if cand.RR != nil && !cand.RR.Contains(x, ContainsEps) {
			continue
		}
		cur, _ = cand.Cost.EvalInto(cur, x)
		if bestPlan == nil || lexLess(cur, best, order) {
			bestPlan = cand.Plan
			cur, best = best, cur
		}
	}
	if bestPlan == nil {
		return Choice{}, ErrNoFeasiblePlan
	}
	return Choice{Plan: bestPlan, Cost: best}, nil
}

func lexLess(a, b geometry.Vector, order []int) bool {
	const tol = 1e-12
	for _, m := range order {
		switch {
		case a[m] < b[m]-tol:
			return true
		case a[m] > b[m]+tol:
			return false
		}
	}
	return false
}

// ContainsEps is the relevance-region containment tolerance of the
// selection policies: a candidate participates at x unless x is inside
// one of its region's cutouts by more than this margin. Point-location
// indexes over candidate sets (internal/index) must prune candidates
// conservatively with respect to this tolerance to keep policy results
// byte-identical to a full scan. It aliases geometry.CompareEps, the
// one comparison epsilon shared across the numeric layers.
const ContainsEps = geometry.CompareEps

// Evaluate filters candidates by their relevance regions at x and
// evaluates the survivors' cost functions — the shared first step of
// every policy, exported so index structures can validate their leaf
// candidate sets against it.
func Evaluate(candidates []Candidate, x geometry.Vector) []Choice {
	// At any one point only a small fraction of a large candidate set is
	// relevant; start with a small buffer instead of one sized for the
	// full set (append grows it in the rare wide-front case).
	capHint := len(candidates)
	if capHint > 16 {
		capHint = 16
	}
	out := make([]Choice, 0, capHint)
	for _, cand := range candidates {
		if cand.RR != nil && !cand.RR.Contains(x, ContainsEps) {
			continue
		}
		v, _ := cand.Cost.Eval(x)
		out = append(out, Choice{Plan: cand.Plan, Cost: v})
	}
	return out
}

func scalarize(cost geometry.Vector, weights []float64) float64 {
	s := 0.0
	for i, w := range weights {
		s += w * cost[i]
	}
	return s
}
