// Cloud tradeoff (Scenario 1 of the paper): a Cloud provider serves a
// query template "SELECT * FROM ... WHERE P1 AND P2" whose predicates
// are specified by users at run time. All relevant query plans are
// precomputed once per template; when a user submits concrete
// predicates, the provider instantly shows the achievable tradeoffs
// between execution time and monetary fees (Figure 1 of the paper) and
// executes the plan matching the user's preference.
package main

import (
	"fmt"
	"log"
	"sort"

	"mpq"
)

func main() {
	// The template joins 4 large tables (a scientific data set, as in
	// Scenario 1); predicates on T1 and T2 are unspecified: their
	// selectivities are the two parameters. The table sizes make
	// parallelization worthwhile for unselective predicates, so genuine
	// time/fees tradeoffs appear.
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables:  4,
		Params:  2,
		Shape:   mpq.Star,
		Seed:    7,
		MinCard: 5e5,
		MaxCard: 2e7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Preprocessing the query template (computing all relevant plans)...")
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
	fmt.Printf("Template ready: %d relevant plans precomputed in %v (%d LPs solved).\n",
		len(result.Plans), result.Stats.Duration, result.Stats.Geometry.LPs)

	// Run time: two different users submit different predicates
	// (parameter points x1 and x2, as in Figure 1).
	algebra := mpq.NewPWLAlgebra(ctx, 2)
	users := []struct {
		name string
		x    mpq.Vector
	}{
		{"user A (selective predicates)", mpq.Vector{0.02, 0.05}},
		{"user B (unselective predicates)", mpq.Vector{0.8, 0.9}},
	}
	for _, u := range users {
		front := result.ParetoFrontAt(algebra, u.x)
		type choice struct {
			time, fees float64
			plan       *mpq.Plan
		}
		choices := make([]choice, 0, len(front))
		for _, info := range front {
			c := algebra.Eval(info.Cost, u.x)
			choices = append(choices, choice{c[0], c[1], info.Plan})
		}
		sort.Slice(choices, func(i, j int) bool { return choices[i].time < choices[j].time })
		fmt.Printf("\n%s at x=%v can trade time against fees:\n", u.name, u.x)
		for _, c := range choices {
			fmt.Printf("  time=%9.3fs  fees=$%.6f  %v\n", c.time, c.fees, c.plan)
		}
		// The user's preference: cheapest plan within a latency budget.
		budget := choices[len(choices)-1].time*0.5 + choices[0].time*0.5
		best := choices[0]
		for _, c := range choices {
			if c.time <= budget && c.fees < best.fees {
				best = c
			}
		}
		fmt.Printf("  -> picked for latency budget %.3fs: %v ($%.6f)\n", budget, best.plan, best.fees)
	}
}
