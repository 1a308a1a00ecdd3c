// Approximate query processing (Scenario 2 of the paper): embedded SQL
// queries are optimized once at compile time; at run time a plan is
// selected based on the concrete parameter values AND a policy trading
// execution time against result precision (e.g. depending on system
// load or minimum precision requirements).
//
// This example implements a custom CostModel: every table can be
// scanned fully (no precision loss) or via a 10% sample (much faster,
// but lossy); losses accumulate over joins. The two cost metrics are
// execution time and precision loss; the optimizer keeps all plans
// realizing Pareto-optimal tradeoffs for some selectivity.
package main

import (
	"fmt"
	"log"

	"mpq"
)

// sampleModel is a custom cost model over a schema: metric 0 is
// execution time (seconds), metric 1 is precision loss in [0, 1].
type sampleModel struct {
	schema *mpq.Schema
	space  *mpq.Polytope
}

const (
	tupleCPUSec  = 1e-6
	sampleFrac   = 0.1
	sampleLoss   = 0.05 // precision loss contributed by one sampled scan
	fullScanName = "scan"
	sampleName   = "sample10"
	joinName     = "hash"
)

func (m *sampleModel) Space() *mpq.Polytope { return m.space }

func (m *sampleModel) MetricNames() []string { return []string{"time", "precision-loss"} }

func (m *sampleModel) ScanAlternatives(t mpq.TableID) []mpq.Alternative {
	card := m.schema.Tables[t].Card
	full := mpq.MultiCost(
		mpq.ConstantCost(m.space, card*tupleCPUSec*3),
		mpq.ConstantCost(m.space, 0),
	)
	sampled := mpq.MultiCost(
		mpq.ConstantCost(m.space, card*tupleCPUSec*3*sampleFrac),
		mpq.ConstantCost(m.space, sampleLoss),
	)
	return []mpq.Alternative{
		{Op: fullScanName, Cost: full},
		{Op: sampleName, Cost: sampled},
	}
}

func (m *sampleModel) JoinAlternatives(left, right mpq.TableSet) []mpq.Alternative {
	// Join step time proportional to the input cardinalities, which
	// depend linearly on the (single) parametric selectivity; the join
	// itself adds no precision loss.
	dim := m.schema.NumParams
	wTime := make(mpq.Vector, dim)
	base := 0.0
	for _, set := range []mpq.TableSet{left, right} {
		c := m.cardCoeffs(set)
		for i := 0; i < dim; i++ {
			wTime[i] += c.w[i] * tupleCPUSec
		}
		base += c.b * tupleCPUSec
	}
	cost := mpq.MultiCost(
		mpq.LinearCost(m.space, wTime, base),
		mpq.ConstantCost(m.space, 0),
	)
	return []mpq.Alternative{{Op: joinName, Cost: cost}}
}

// cardCoeffs returns the output cardinality of a table set as a linear
// function of the parameters (valid because at most one parametric
// predicate participates per set in this example's schema).
type coeffs struct {
	w mpq.Vector
	b float64
}

func (m *sampleModel) cardCoeffs(set mpq.TableSet) coeffs {
	prod := 1.0
	paramIdx := -1
	for _, t := range set.Tables() {
		tab := m.schema.Tables[t]
		prod *= tab.Card
		if tab.Pred != nil && tab.Pred.ParamIndex >= 0 {
			paramIdx = tab.Pred.ParamIndex
		}
	}
	for _, e := range m.schema.Edges {
		if set.Contains(e.A) && set.Contains(e.B) {
			prod *= e.Sel
		}
	}
	w := make(mpq.Vector, m.schema.NumParams)
	if paramIdx >= 0 {
		w[paramIdx] = prod
		return coeffs{w: w, b: 0}
	}
	return coeffs{w: w, b: prod}
}

func main() {
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables: 3,
		Params: 1,
		Shape:  mpq.Chain,
		Seed:   5,
	})
	if err != nil {
		log.Fatal(err)
	}
	model := &sampleModel{schema: schema, space: schema.ParameterSpace()}

	// Compile time: optimize the embedded query once.
	opts := mpq.DefaultOptions()
	result, err := mpq.Optimize(schema, model, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Embedded query compiled: %d Pareto plans stored.\n\n", len(result.Plans))

	// Run time: the selectivity is now known; apply two different
	// policies.
	algebra := mpq.NewPWLAlgebra(mpq.NewSolver(mpq.SolverConfig{}), 2)
	x := mpq.Vector{0.4}
	front := result.ParetoFrontAt(algebra, x)
	fmt.Printf("Pareto tradeoffs at selectivity %.1f:\n", x[0])
	for _, info := range front {
		c := algebra.Eval(info.Cost, x)
		fmt.Printf("  time=%8.4fs  loss=%.3f  %v\n", c[0], c[1], info.Plan)
	}

	policies := []struct {
		name    string
		maxLoss float64
	}{
		{"exact results required (maxLoss = 0)", 0},
		{"dashboard mode (maxLoss = 0.10)", 0.10},
		{"exploratory mode (maxLoss = 0.30)", 0.30},
	}
	for _, pol := range policies {
		var best *mpq.PlanInfo
		var bestTime float64
		for _, info := range front {
			c := algebra.Eval(info.Cost, x)
			if c[1] <= pol.maxLoss+1e-12 && (best == nil || c[0] < bestTime) {
				best = info
				bestTime = c[0]
			}
		}
		if best == nil {
			fmt.Printf("\nPolicy %q: no feasible plan\n", pol.name)
			continue
		}
		fmt.Printf("\nPolicy %q selects:\n  %v (time %.4fs)\n", pol.name, best.Plan, bestTime)
	}
}
