// Quickstart: optimize a randomly generated chain query with one
// unspecified predicate selectivity and two cost metrics (execution
// time, monetary fees), then select plans at run time for a concrete
// selectivity.
package main

import (
	"fmt"
	"log"

	"mpq"
)

func main() {
	// A 4-table chain query; the predicate selectivity of T1 is a
	// parameter in [0.001, 1] unknown until run time.
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables: 4,
		Params: 1,
		Shape:  mpq.Chain,
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Query:")
	for _, t := range schema.Tables {
		pred := ""
		if t.Pred != nil {
			pred = fmt.Sprintf("  predicate on %s (selectivity = parameter x%d)", t.Pred.Column, t.Pred.ParamIndex+1)
		}
		fmt.Printf("  %s: %.0f rows%s\n", t.Name, t.Card, pred)
	}
	for _, e := range schema.Edges {
		fmt.Printf("  join T%d-T%d selectivity %.2g\n", e.A+1, e.B+1, e.Sel)
	}

	// Optimize once, before run time (Figure 2 of the paper).
	ctx := mpq.NewSolver(mpq.SolverConfig{})
	model, err := mpq.NewCloudModel(schema, mpq.DefaultCloudConfig(), ctx)
	if err != nil {
		log.Fatal(err)
	}
	opts := mpq.DefaultOptions()
	opts.Context = ctx
	result, err := mpq.Optimize(schema, model, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPareto plan set (%d plans, %d created, %d LPs, %v):\n",
		len(result.Plans), result.Stats.CreatedPlans, result.Stats.Geometry.LPs, result.Stats.Duration)
	algebra := mpq.NewPWLAlgebra(ctx, 2)
	for i, info := range result.Plans {
		c, _ := info.Cost.(*mpq.PWLMulti).Eval(mpq.Vector{0.5})
		fmt.Printf("  [%d] %v\n      time=%.3fs fees=$%.6f at x=0.5\n", i+1, info.Plan, c[0], c[1])
	}

	// Run time: the user reports selectivity 0.05 — print the Pareto
	// frontier they can choose from.
	for _, sel := range []float64{0.05, 0.9} {
		fmt.Printf("\nPareto frontier at selectivity %.2f:\n", sel)
		for _, info := range result.ParetoFrontAt(algebra, mpq.Vector{sel}) {
			c := algebra.Eval(info.Cost, mpq.Vector{sel})
			fmt.Printf("  time=%8.3fs  fees=$%.6f  %v\n", c[0], c[1], info.Plan)
		}
	}
}
