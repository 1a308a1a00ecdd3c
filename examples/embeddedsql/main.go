// Embedded SQL (the classical parametric-optimization use case the
// paper builds on): a query inside an application is optimized once at
// deployment time; the Pareto plan set is serialized next to the
// application. At run time — for every execution — the stored set is
// loaded and a plan is selected for the current parameter values and
// preference policy, without invoking the optimizer.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mpq"
	"mpq/internal/selection"
	"mpq/internal/store"
)

func main() {
	// ---------- deployment time ----------
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables:  4,
		Params:  1,
		Shape:   mpq.Chain,
		Seed:    21,
		MinCard: 1e5,
		MaxCard: 5e6,
	})
	if err != nil {
		log.Fatal(err)
	}
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

	// Serialize the plan set (to a buffer here; a file in practice).
	var planFile bytes.Buffer
	if err := store.Save(&planFile, model.MetricNames(), model.Space(), result.Plans); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: optimized once (%v), stored %d plans in %d bytes\n",
		result.Stats.Duration, len(result.Plans), planFile.Len())

	// ---------- run time (every query execution) ----------
	ps, err := store.Load(&planFile)
	if err != nil {
		log.Fatal(err)
	}
	candidates := make([]selection.Candidate, len(ps.Plans))
	for i, lp := range ps.Plans {
		candidates[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}

	executions := []struct {
		selectivity float64
		policy      string
	}{
		{0.02, "deadline"},
		{0.6, "deadline"},
		{0.6, "cheapest"},
		{0.6, "weighted"},
	}
	for _, e := range executions {
		x := mpq.Vector{e.selectivity}
		var choice selection.Choice
		var err error
		switch e.policy {
		case "deadline":
			// Cheapest plan finishing within 2 seconds.
			choice, err = selection.MinimizeSubjectTo(candidates, x, 1,
				[]selection.Bound{{Metric: 0, Max: 2.0}})
			if err != nil {
				// Deadline infeasible: fall back to fastest plan.
				choice, err = selection.Lexicographic(candidates, x, []int{0, 1})
			}
		case "cheapest":
			choice, err = selection.Lexicographic(candidates, x, []int{1, 0})
		case "weighted":
			// One second is worth as much as 0.0001 USD.
			choice, err = selection.WeightedSum(candidates, x, []float64{1, 10000})
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nexecute(sel=%.2f, policy=%s):\n  %v\n  time=%.3fs fees=$%.6f\n",
			e.selectivity, e.policy, choice.Plan, choice.Cost[0], choice.Cost[1])
	}

	// Show the user-facing frontier for one execution.
	fmt.Println("\nfrontier at sel=0.6:")
	for _, c := range selection.Frontier(candidates, mpq.Vector{0.6}) {
		fmt.Printf("  time=%8.3fs fees=$%.6f  %v\n", c.Cost[0], c.Cost[1], c.Plan)
	}
}
