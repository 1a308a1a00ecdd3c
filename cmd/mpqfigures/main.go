// mpqfigures regenerates the data behind the paper's illustrative
// figures and examples: Figure 1 (Pareto frontiers of a Cloud query
// template at two parameter points), Example 2 (dominance relations),
// Figures 4-6 (the counter-examples of Table 1 / Section 4), and
// Figure 7 (relevance-region pruning of a parallel vs single-node
// join).
//
// Usage:
//
//	mpqfigures -fig all|1|4|5|6|7|ex2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 4, 5, 6, 7, ex2")
	flag.Parse()
	switch *fig {
	case "all":
		figure1()
		example2()
		figure4()
		figure5()
		figure6()
		figure7()
	case "1":
		figure1()
	case "ex2":
		example2()
	case "4":
		figure4()
	case "5":
		figure5()
	case "6":
		figure6()
	case "7":
		figure7()
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(title string) { fmt.Printf("\n================ %s ================\n", title) }

// figure1 rebuilds the Scenario-1 picture: the Pareto-optimal
// time/fees combinations of a preprocessed query template at two
// points of the (two-dimensional) parameter space.
func figure1() {
	header("Figure 1: Pareto plans of a Cloud template at two parameter points")
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 8e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a1", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 5e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a2", ParamIndex: 1}, HasIndex: true},
			{Name: "T3", Card: 2e6, TupleBytes: 100},
		},
		Edges: []catalog.JoinEdge{
			{A: 0, B: 1, Sel: 2e-7},
			{A: 1, B: 2, Sel: 5e-7},
		},
		NumParams: 2,
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
	fmt.Printf("plan set: %d relevant plans\n", len(res.Plans))
	algebra := core.NewPWLAlgebra(ctx, 2)
	for _, point := range []geometry.Vector{{0.1, 0.2}, {0.7, 0.8}} {
		fmt.Printf("\nPareto front at x = %v (cf. Figure 1b/1c):\n", point)
		front := res.ParetoFrontAt(algebra, point)
		type row struct{ t, f float64 }
		rows := make([]row, 0, len(front))
		for _, info := range front {
			c := algebra.Eval(info.Cost, point)
			rows = append(rows, row{c[0], c[1]})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
		for i, r := range rows {
			fmt.Printf("  p%d: time=%8.2fs fees=$%.6f\n", i+1, r.t, r.f)
		}
	}
}

// example2 prints the dominance relations of the paper's Example 2.
func example2() {
	header("Example 2: dominance and Pareto regions")
	space := geometry.Interval(0, 1)
	p1 := pwl.NewMulti(pwl.Linear(space, geometry.Vector{2}, 0), pwl.Constant(space, 3))
	p2 := pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 0.5), pwl.Constant(space, 2))
	p3 := pwl.NewMulti(pwl.Linear(space, geometry.Vector{1}, 0.5), pwl.Constant(space, 2))
	ctx := geometry.NewSolver(geometry.Config{})
	show := func(name string, polys []*geometry.Polytope) {
		fmt.Printf("  %s:", name)
		if len(polys) == 0 {
			fmt.Println(" empty")
			return
		}
		for _, p := range polys {
			lo, hi, ok := ctx.Vertices1D(p)
			if ok {
				fmt.Printf(" [%.2f, %.2f]", lo, hi)
			}
		}
		fmt.Println()
	}
	show("Dom(p2, p3)", pwl.Dom(ctx, p2, p3))
	show("Dom(p3, p2)", pwl.Dom(ctx, p3, p2))
	show("Dom(p2, p1) (p2 strictly dominates p1 for sigma > 0.5)", pwl.Dom(ctx, p2, p1))
	show("Dom(p1, p2)", pwl.Dom(ctx, p1, p2))
	fmt.Println("  => Pareto region of p1 is [0, 0.5]; {p1,p2} and {p1,p3} are Pareto plan sets")
}

func tabulate1D(res *core.Result, algebra core.Algebra, points []float64, dim int) {
	fmt.Printf("  %-14s Pareto plans\n", "x")
	for _, x := range points {
		vec := geometry.Vector{x}
		if dim == 2 {
			vec = geometry.Vector{x, x}
		}
		front := res.ParetoFrontAt(algebra, vec)
		fmt.Printf("  %-14.2f", x)
		for _, info := range front {
			fmt.Printf(" %s", info.Plan.Op)
		}
		fmt.Println()
	}
}

func staticOptimize(space *geometry.Polytope, alts []core.Alternative) (*core.Result, core.Algebra) {
	ctx := geometry.NewSolver(geometry.Config{})
	lo, hi, _ := ctx.BoundingBox(space)
	schema := core.StaticSchema(space.Dim(), lo, hi)
	model := &core.StaticModel{ParamSpace: space, Metrics: []string{"m1", "m2"}, Plans: alts}
	opts := core.DefaultOptions()
	opts.Context = ctx
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res, core.NewPWLAlgebra(ctx, 2)
}

// figure4 regenerates the M1 counter-example: a plan Pareto-optimal at
// two points but not between them.
func figure4() {
	header("Figure 4 (M1): Pareto at two points, dominated in between")
	space := geometry.Interval(0, 3)
	res, algebra := staticOptimize(space, []core.Alternative{
		{Op: "plan1", Cost: pwl.NewMulti(
			pwl.Linear(space, geometry.Vector{-1}, 2),
			pwl.Linear(space, geometry.Vector{1}, 0))},
		{Op: "plan2", Cost: pwl.NewMulti(
			pwl.Constant(space, 1),
			pwl.Constant(space, 2))},
	})
	tabulate1D(res, algebra, []float64{0, 0.5, 1.5, 2.5, 3}, 1)
	fmt.Println("  => plan2 is Pareto-optimal on [0,1) and (2,3] but not on [1,2]")
}

// figure5 regenerates the M2 counter-example: a non-convex Pareto
// region in a two-dimensional parameter space.
func figure5() {
	header("Figure 5 (M2): non-convex Pareto region")
	space := geometry.Box(geometry.Vector{0, 0}, geometry.Vector{2, 2})
	res, algebra := staticOptimize(space, []core.Alternative{
		{Op: "plan1", Cost: pwl.NewMulti(
			pwl.Linear(space, geometry.Vector{1, 0}, 0),
			pwl.Linear(space, geometry.Vector{0, 1}, 0))},
		{Op: "plan2", Cost: pwl.NewMulti(
			pwl.Constant(space, 1),
			pwl.Constant(space, 1))},
	})
	fmt.Printf("  %-14s Pareto plans\n", "(x1,x2)")
	for _, pt := range []geometry.Vector{{0.5, 0.5}, {1.5, 0.5}, {0.5, 1.5}, {1.5, 1.5}, {0.95, 0.95}} {
		front := res.ParetoFrontAt(algebra, pt)
		fmt.Printf("  (%.2f,%.2f)   ", pt[0], pt[1])
		for _, info := range front {
			fmt.Printf(" %s", info.Plan.Op)
		}
		fmt.Println()
	}
	fmt.Println("  => plan2's Pareto region is the square minus the unit box: not convex")
}

// figure6 regenerates the M3b counter-example: a plan Pareto-optimal
// strictly inside a region but on none of its vertices.
func figure6() {
	header("Figure 6 (M3b): Pareto inside, not on the vertices")
	space := geometry.Interval(0, 2)
	p3B := pwl.NewFunction(
		pwl.Piece{Region: geometry.Interval(0, 0.75), W: geometry.Vector{-2}, B: 2.5},
		pwl.Piece{Region: geometry.Interval(0.75, 1.25), W: geometry.Vector{0}, B: 1},
		pwl.Piece{Region: geometry.Interval(1.25, 2), W: geometry.Vector{2}, B: -1.5},
	)
	res, algebra := staticOptimize(space, []core.Alternative{
		{Op: "plan1", Cost: pwl.NewMulti(
			pwl.Linear(space, geometry.Vector{1}, 0),
			pwl.Linear(space, geometry.Vector{-1}, 2))},
		{Op: "plan2", Cost: pwl.NewMulti(
			pwl.Linear(space, geometry.Vector{-1}, 2),
			pwl.Linear(space, geometry.Vector{1}, 0))},
		{Op: "plan3", Cost: pwl.NewMulti(pwl.Constant(space, 1), p3B)},
	})
	tabulate1D(res, algebra, []float64{0, 0.25, 0.9, 1.1, 1.75, 2}, 1)
	fmt.Println("  => plan3 is Pareto-optimal on (0.5, 1.5) only; the vertices x=0, x=2 miss it")
}

// figure7 reproduces Example 3 / Figure 7: pruning the parallel join
// plan with the single-node join plan reduces its relevance region to
// [0.25, 1].
func figure7() {
	header("Figure 7: relevance region pruning (single-node vs parallel join)")
	space := geometry.Interval(0, 1)
	// Idealized costs of the paper's figure: plan1 (single-node) time
	// 4x, fees x; plan2 (parallel) time 1+... — we use the shapes of
	// Figure 7: time1 = 4x, time2 = 1 + 2x  (crossover x = 0.5... the
	// figure's crossover is 0.25 with time1 = 4x, time2 = x + 0.75).
	plan1 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{4}, 0), // single-node time
		pwl.Linear(space, geometry.Vector{1}, 0), // fees proportional to work
	)
	plan2 := pwl.NewMulti(
		pwl.Linear(space, geometry.Vector{1}, 0.75), // parallel: startup + less slope
		pwl.Linear(space, geometry.Vector{2}, 0.5),  // fees always higher
	)
	ctx := geometry.NewSolver(geometry.Config{})
	dom := pwl.Dom(ctx, plan1, plan2)
	fmt.Println("  RR of plan 2 after creation: [0.00, 1.00]")
	for _, p := range dom {
		lo, hi, ok := ctx.Vertices1D(p)
		if ok {
			fmt.Printf("  plan 1 dominates plan 2 on: [%.2f, %.2f]\n", lo, hi)
		}
	}
	res, algebra := staticOptimize(space, []core.Alternative{
		{Op: "single-node", Cost: plan1},
		{Op: "parallel", Cost: plan2},
	})
	_ = algebra
	for _, info := range res.Plans {
		if info.Plan.Op == "parallel" {
			pieces := info.RR.Pieces(ctx)
			fmt.Print("  RR of plan 2 after pruning with plan 1:")
			for _, p := range pieces {
				lo, hi, ok := ctx.Vertices1D(p)
				if ok {
					fmt.Printf(" [%.2f, %.2f]", lo, hi)
				}
			}
			fmt.Println()
		}
	}
}
