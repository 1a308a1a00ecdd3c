// Package baseline implements the comparison algorithms the paper's
// analysis refers to (Sections 1.1 and 3), plus exhaustive plan
// enumeration used as ground truth for validating RRPA's completeness
// guarantee (Theorem 3):
//
//   - EnumerateAll: every bushy plan, no pruning (ground truth).
//   - Selinger: classical single-objective query optimization at fixed
//     parameter values (Selinger et al. [26]).
//   - ParetoMQ: multi-objective query optimization at fixed parameter
//     values with Pareto pruning of constant cost vectors (Ganguly et
//     al. [14]).
//   - PQSingleMetric: parametric query optimization for a single metric,
//     pruning plans dominated on the entire parameter space.
package baseline

import (
	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/plan"
	"mpq/internal/pwl"
)

// EnumPlan is a fully enumerated plan with its cost.
type EnumPlan struct {
	Plan *plan.Node
	Cost core.Cost
}

// EnumerateAll generates every bushy plan for the query without any
// pruning (all ordered splits, all operators, all sub-plan
// combinations), the plan space RRPA searches. Exponential: intended for
// validation on small queries.
func EnumerateAll(schema *catalog.Schema, model core.CostModel, algebra core.Algebra, postponeCartesian bool) []EnumPlan {
	memo := make(map[catalog.TableSet][]EnumPlan)
	all := schema.AllTables()
	fullyConnected := schema.Connected(all)
	var rec func(q catalog.TableSet) []EnumPlan
	rec = func(q catalog.TableSet) []EnumPlan {
		if plans, ok := memo[q]; ok {
			return plans
		}
		var out []EnumPlan
		if q.Count() == 1 {
			t := q.Single()
			for _, alt := range model.ScanAlternatives(t) {
				out = append(out, EnumPlan{Plan: plan.Scan(t, alt.Op), Cost: alt.Cost})
			}
			memo[q] = out
			return out
		}
		if postponeCartesian && fullyConnected && !schema.Connected(q) {
			memo[q] = nil
			return nil
		}
		gen := func(requireEdge bool) {
			q.SubsetsProper(func(q1 catalog.TableSet) bool {
				q2 := q.Minus(q1)
				if requireEdge && postponeCartesian && !schema.HasEdgeBetween(q1, q2) {
					return true
				}
				p1s, p2s := rec(q1), rec(q2)
				if len(p1s) == 0 || len(p2s) == 0 {
					return true
				}
				alts := model.JoinAlternatives(q1, q2)
				for _, p1 := range p1s {
					for _, p2 := range p2s {
						for _, alt := range alts {
							out = append(out, EnumPlan{
								Plan: plan.Join(alt.Op, p1.Plan, p2.Plan),
								Cost: accumulate(algebra, alt.Cost, p1.Cost, p2.Cost),
							})
						}
					}
				}
				return true
			})
		}
		gen(true)
		if len(out) == 0 {
			gen(false)
		}
		memo[q] = out
		return out
	}
	return rec(all)
}

// accumulate is algebra.Accumulate with the result finished at once:
// the baselines keep every cost they build, so a PWLAlgebra's pending
// compaction runs eagerly, on the algebra's own solver.
func accumulate(algebra core.Algebra, step, c1, c2 core.Cost) core.Cost {
	c := algebra.Accumulate(step, c1, c2)
	if a, ok := algebra.(*core.PWLAlgebra); ok {
		c.(*pwl.Multi).Finish(a.Ctx)
	}
	return c
}

// TrueFrontAt computes the exact Pareto front of cost vectors over all
// enumerated plans at parameter vector x. Duplicate vectors are
// collapsed.
func TrueFrontAt(plans []EnumPlan, algebra core.Algebra, x geometry.Vector) []geometry.Vector {
	costs := make([]geometry.Vector, len(plans))
	for i, p := range plans {
		costs[i] = algebra.Eval(p.Cost, x)
	}
	var front []geometry.Vector
	for i, c := range costs {
		dominated := false
		for j, other := range costs {
			if i == j {
				continue
			}
			if WeaklyDominates(other, c) {
				if !other.Equal(c, 1e-12) {
					dominated = true
					break
				}
				if j < i { // collapse exact duplicates
					dominated = true
					break
				}
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

// WeaklyDominates reports a <= b component-wise within tolerance.
func WeaklyDominates(a, b geometry.Vector) bool {
	for i := range a {
		if a[i] > b[i]+1e-9 {
			return false
		}
	}
	return true
}

// Selinger runs classical single-objective dynamic programming at fixed
// parameter values: for each table set it keeps only the plan minimizing
// the chosen metric. Returns the best plan and its cost value.
func Selinger(schema *catalog.Schema, model core.CostModel, algebra core.Algebra, x geometry.Vector, metric int, postponeCartesian bool) (*plan.Node, float64) {
	type best struct {
		p    *plan.Node
		c    core.Cost
		cost float64
	}
	memo := make(map[catalog.TableSet]*best)
	for i := range schema.Tables {
		t := catalog.TableID(i)
		q := catalog.SetOf(t)
		for _, alt := range model.ScanAlternatives(t) {
			cost := algebra.Eval(alt.Cost, x)[metric]
			if b := memo[q]; b == nil || cost < b.cost {
				memo[q] = &best{p: plan.Scan(t, alt.Op), c: alt.Cost, cost: cost}
			}
		}
	}
	all := schema.AllTables()
	fullyConnected := schema.Connected(all)
	n := schema.NumTables()
	for k := 2; k <= n; k++ {
		for mask := catalog.TableSet(1); mask <= all; mask++ {
			if mask.Count() != k {
				continue
			}
			if postponeCartesian && fullyConnected && !schema.Connected(mask) {
				continue
			}
			try := func(requireEdge bool) bool {
				found := false
				mask.SubsetsProper(func(q1 catalog.TableSet) bool {
					q2 := mask.Minus(q1)
					if requireEdge && postponeCartesian && !schema.HasEdgeBetween(q1, q2) {
						return true
					}
					b1, b2 := memo[q1], memo[q2]
					if b1 == nil || b2 == nil {
						return true
					}
					for _, alt := range model.JoinAlternatives(q1, q2) {
						c := accumulate(algebra, alt.Cost, b1.c, b2.c)
						cost := algebra.Eval(c, x)[metric]
						if b := memo[mask]; b == nil || cost < b.cost {
							memo[mask] = &best{p: plan.Join(alt.Op, b1.p, b2.p), c: c, cost: cost}
						}
						found = true
					}
					return true
				})
				return found
			}
			if !try(true) {
				try(false)
			}
		}
	}
	if b := memo[all]; b != nil {
		return b.p, b.cost
	}
	return nil, 0
}

// VecPlan is a plan with its constant cost vector at a fixed parameter
// point.
type VecPlan struct {
	Plan *plan.Node
	Cost core.Cost
	Vec  geometry.Vector
}

// ParetoMQ runs multi-objective dynamic programming at fixed parameter
// values: plans joining the same tables are compared by their constant
// cost vectors, non-Pareto-optimal plans are discarded (the MQ baseline
// of Ganguly et al. [14], which supports multiple metrics but no
// parameters).
func ParetoMQ(schema *catalog.Schema, model core.CostModel, algebra core.Algebra, x geometry.Vector, postponeCartesian bool) []VecPlan {
	memo := make(map[catalog.TableSet][]VecPlan)
	insert := func(q catalog.TableSet, vp VecPlan) {
		for _, old := range memo[q] {
			if WeaklyDominates(old.Vec, vp.Vec) {
				return
			}
		}
		kept := memo[q][:0]
		for _, old := range memo[q] {
			if !WeaklyDominates(vp.Vec, old.Vec) {
				kept = append(kept, old)
			}
		}
		memo[q] = append(kept, vp)
	}
	for i := range schema.Tables {
		t := catalog.TableID(i)
		q := catalog.SetOf(t)
		for _, alt := range model.ScanAlternatives(t) {
			insert(q, VecPlan{Plan: plan.Scan(t, alt.Op), Cost: alt.Cost, Vec: algebra.Eval(alt.Cost, x)})
		}
	}
	all := schema.AllTables()
	fullyConnected := schema.Connected(all)
	n := schema.NumTables()
	for k := 2; k <= n; k++ {
		for mask := catalog.TableSet(1); mask <= all; mask++ {
			if mask.Count() != k {
				continue
			}
			if postponeCartesian && fullyConnected && !schema.Connected(mask) {
				continue
			}
			try := func(requireEdge bool) bool {
				found := false
				mask.SubsetsProper(func(q1 catalog.TableSet) bool {
					q2 := mask.Minus(q1)
					if requireEdge && postponeCartesian && !schema.HasEdgeBetween(q1, q2) {
						return true
					}
					p1s, p2s := memo[q1], memo[q2]
					if len(p1s) == 0 || len(p2s) == 0 {
						return true
					}
					for _, alt := range model.JoinAlternatives(q1, q2) {
						for _, p1 := range p1s {
							for _, p2 := range p2s {
								c := accumulate(algebra, alt.Cost, p1.Cost, p2.Cost)
								insert(mask, VecPlan{
									Plan: plan.Join(alt.Op, p1.Plan, p2.Plan),
									Cost: c,
									Vec:  algebra.Eval(c, x),
								})
								found = true
							}
						}
					}
					return true
				})
				return found
			}
			if !try(true) {
				try(false)
			}
		}
	}
	return memo[all]
}

// PQSingleMetric runs parametric query optimization for a single cost
// metric with PWL cost functions: a plan is pruned when some retained
// plan's cost function is at most its own over the entire parameter
// space. The result is a parametric optimal set for the chosen metric
// (possibly non-minimal), the PQ baseline of Section 1.1.
func PQSingleMetric(schema *catalog.Schema, model core.CostModel, ctx *geometry.Solver, metric int, postponeCartesian bool) []EnumPlan {
	space := model.Space()
	memo := make(map[catalog.TableSet][]EnumPlan)
	dominatedEverywhere := func(a, b *pwl.Function) bool {
		// a <= b everywhere on space?
		one := pwl.NewMulti(a)
		other := pwl.NewMulti(b)
		return pwl.DominatesEverywhere(ctx, one, other, space)
	}
	insert := func(q catalog.TableSet, ep EnumPlan) {
		newF := ep.Cost.(*pwl.Multi).Component(metric)
		for _, old := range memo[q] {
			if dominatedEverywhere(old.Cost.(*pwl.Multi).Component(metric), newF) {
				return
			}
		}
		kept := memo[q][:0]
		for _, old := range memo[q] {
			if !dominatedEverywhere(newF, old.Cost.(*pwl.Multi).Component(metric)) {
				kept = append(kept, old)
			}
		}
		memo[q] = append(kept, ep)
	}
	algebra := &core.PWLAlgebra{Ctx: ctx, Modes: make([]pwl.AccumMode, len(model.MetricNames())), Compact: true}
	for i := range schema.Tables {
		t := catalog.TableID(i)
		q := catalog.SetOf(t)
		for _, alt := range model.ScanAlternatives(t) {
			insert(q, EnumPlan{Plan: plan.Scan(t, alt.Op), Cost: alt.Cost})
		}
	}
	all := schema.AllTables()
	fullyConnected := schema.Connected(all)
	n := schema.NumTables()
	for k := 2; k <= n; k++ {
		for mask := catalog.TableSet(1); mask <= all; mask++ {
			if mask.Count() != k {
				continue
			}
			if postponeCartesian && fullyConnected && !schema.Connected(mask) {
				continue
			}
			try := func(requireEdge bool) bool {
				found := false
				mask.SubsetsProper(func(q1 catalog.TableSet) bool {
					q2 := mask.Minus(q1)
					if requireEdge && postponeCartesian && !schema.HasEdgeBetween(q1, q2) {
						return true
					}
					p1s, p2s := memo[q1], memo[q2]
					if len(p1s) == 0 || len(p2s) == 0 {
						return true
					}
					for _, alt := range model.JoinAlternatives(q1, q2) {
						for _, p1 := range p1s {
							for _, p2 := range p2s {
								c := accumulate(algebra, alt.Cost, p1.Cost, p2.Cost)
								insert(mask, EnumPlan{Plan: plan.Join(alt.Op, p1.Plan, p2.Plan), Cost: c})
								found = true
							}
						}
					}
					return true
				})
				return found
			}
			if !try(true) {
				try(false)
			}
		}
	}
	return memo[all]
}
