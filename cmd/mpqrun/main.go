// mpqrun optimizes a single randomly generated query and explains the
// resulting Pareto plan set: plans, their costs at a chosen parameter
// point, and their relevance regions.
//
// Usage:
//
//	mpqrun -tables 5 -params 1 -shape chain -seed 3 -x 0.25
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/diagram"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/workload"
)

func main() {
	var (
		tables      = flag.Int("tables", 5, "number of tables")
		params      = flag.Int("params", 1, "number of parameters")
		shapeName   = flag.String("shape", "chain", "join graph shape: chain, star, cycle, clique")
		seed        = flag.Int64("seed", 1, "random seed")
		xFlag       = flag.String("x", "", "comma-separated parameter values for run-time plan selection")
		explain     = flag.Bool("explain", false, "print full operator trees")
		showDiagram = flag.Bool("diagram", false, "render Pareto-front-size and winner plan diagrams")
	)
	flag.Parse()

	shape, err := workload.ParseShape(*shapeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	schema, err := workload.Generate(workload.Config{
		Tables: *tables, Params: *params, Shape: shape, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("query: %d tables, %s join graph, %d parameter(s), seed %d\n",
		*tables, shape, *params, *seed)
	for _, t := range schema.Tables {
		pred := ""
		if t.Pred != nil {
			pred = fmt.Sprintf(" pred(x%d)", t.Pred.ParamIndex+1)
		}
		fmt.Printf("  %-4s %10.0f rows%s\n", t.Name, t.Card, pred)
	}

	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := core.DefaultOptions()
	opts.Context = ctx
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	st := res.Stats
	fmt.Printf("\noptimized in %v: %d plans created, %d pruned, %d kept, %d LPs solved\n",
		st.Duration, st.CreatedPlans, st.PrunedPlans, st.FinalPlans, st.Geometry.LPs)

	algebra := core.NewPWLAlgebra(ctx, 2)
	mid := midpoint(schema)
	fmt.Printf("\nPareto plan set (costs shown at x=%v):\n", mid)
	for i, info := range res.Plans {
		c := algebra.Eval(info.Cost, mid)
		fmt.Printf("  [%2d] time=%10.3fs fees=$%.6f cutouts=%d\n", i+1, c[0], c[1], info.RR.NumCutouts())
		if *explain {
			fmt.Print(indent(info.Plan.Explain(), "       "))
		} else {
			fmt.Printf("       %v\n", info.Plan)
		}
	}

	if *xFlag != "" {
		x, err := parseVector(*xFlag, schema.NumParams)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("\nrun-time Pareto front at x=%v:\n", x)
		for _, info := range res.ParetoFrontAt(algebra, x) {
			c := algebra.Eval(info.Cost, x)
			fmt.Printf("  time=%10.3fs fees=$%.6f  %v\n", c[0], c[1], info.Plan)
		}
	}

	if *showDiagram && schema.NumParams <= 2 {
		names := make([]string, len(res.Plans))
		costs := make([]*pwl.Multi, len(res.Plans))
		for i, info := range res.Plans {
			names[i] = info.Plan.String()
			costs[i] = info.Cost.(*pwl.Multi)
		}
		plans := &diagram.MultiSlice{Names: names, Costs: costs}
		lo, hi := schema.ParameterBounds()
		resolution := 40
		if schema.NumParams == 2 {
			resolution = 24
		}
		front, err := diagram.FrontSize(plans, lo, hi, resolution)
		if err == nil {
			fmt.Println("\nPareto front size across the parameter space:")
			front.RenderASCII(os.Stdout)
		}
		win, err := diagram.Winner(plans, lo, hi, resolution, []float64{1, 0})
		if err == nil {
			fmt.Println("\ntime-optimal plan diagram:")
			win.RenderASCII(os.Stdout)
		}
	}
}

func midpoint(schema interface {
	ParameterBounds() (geometry.Vector, geometry.Vector)
}) geometry.Vector {
	lo, hi := schema.ParameterBounds()
	return lo.Add(hi).Scale(0.5)
}

func parseVector(s string, dim int) (geometry.Vector, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("-x needs %d comma-separated values, got %d", dim, len(parts))
	}
	v := geometry.NewVector(dim)
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid parameter value %q: %v", p, err)
		}
		v[i] = f
	}
	return v, nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
