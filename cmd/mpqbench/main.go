// mpqbench reproduces the experimental evaluation of the paper
// (Section 7): Figure 12's six panels (optimization time, number of
// created plans, number of solved linear programs; for chain and star
// queries with one and two parameters), plus the Section 1.1 result-set
// blow-up experiment and ablations of the Section 6.2 refinements.
//
// Usage:
//
//	mpqbench -experiment figure12 [-quick] [-reps 25] [-csv] [-json] [-workers N]
//	mpqbench -experiment figure12 -shapes chain,star,cycle,clique -params 1,2,3 [-max-tables N]
//	mpqbench -experiment figure12 -quick -json -baseline BENCH_baseline.json
//	mpqbench -experiment figure12 -parallel clique:1:6,star:1:8
//	mpqbench -experiment figure12 -picks clique:2:6 -fleet star:1:7 [-points 256]
//	mpqbench -experiment figure12 -epsilon 0,0.01,0.1 -epsilon-specs chain:1:8,star:1:7
//	mpqbench -experiment figure12 -cpuprofile cpu.out -memprofile mem.out
//	mpqbench -experiment pqblowup
//	mpqbench -experiment ablation [-tables 6]
//
// A figure12 run measures the Figure 12 curves (medians over -reps
// random queries per point), then each requested spec-driven mode over
// its shape:params:tables plan sets, with -points random points per
// plan set:
//
//   - -picks prepares each plan set once, verifies that the pick index
//     returns byte-identical results to the linear scan under all four
//     selection policies, and times both paths.
//   - -fleet prepares each plan set on three in-process servers over
//     one shared on-disk store, fails below a 2/3 shared-store hit
//     rate, and times concurrent batched picks.
//   - -epsilon certifies each ε tier's max regret against the exact
//     frontier and reports the plan and LP savings it bought.
//
// Every row lands in the report's one gated list (cases), named by its
// mode ("picks/", "fleet/", "epsilon/" prefixes). -parallel
// points run at workers = GOMAXPROCS and land in the informational
// parallel_cases. With -baseline, the run is diffed against the given
// snapshot (the CI regression gate): ε > 0 rows must keep their
// certified regret within (1+ε), every other row its plan, LP and
// hit-rate counts; drift exits non-zero, time drift only warns.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the CPU
// profile covers the whole experiment; the heap profile is captured
// after the final collection), for digging into regressions the gate
// surfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mpq/internal/baseline"
	"mpq/internal/bench"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/region"
	"mpq/internal/workload"
)

const (
	// fleetServers is the -fleet fleet size.
	fleetServers = 3
	// defaultModeSpecs are the plan sets of -epsilon when its -specs
	// flag is unset.
	defaultModeSpecs = "chain:1:8,star:1:7"
	// parallelPrefix names the -parallel rows.
	parallelPrefix = "parallel/"
)

// modeFlags is the table of spec-driven modes. Each is turned on by
// its flag. Its specs are the flag's value, or, for a mode whose value
// is a factor list (specsUsage set), the -<name>-specs flag.
var modeFlags = []struct {
	name, usage, specsUsage string
	mode                    func(value string) (bench.Mode, error)
}{
	{
		name:  "picks",
		usage: "pick-throughput specs shape:params:tables[,...]: prepare once, verify index = linear scan, measure per-pick latency",
		mode:  func(string) (bench.Mode, error) { return bench.PicksMode(), nil },
	},
	{
		name:  "fleet",
		usage: "fleet-serving specs shape:params:tables[,...]: 3 servers over one shared store, gate hit rate and fleet pick throughput",
		mode:  func(string) (bench.Mode, error) { return bench.FleetMode(fleetServers), nil },
	},
	{
		name:       "epsilon",
		usage:      "comma-separated ε approximation factors (e.g. 0,0.01,0.1): certify regret and measure plan/LP savings per -epsilon-specs plan set",
		specsUsage: "ε-experiment specs shape:params:tables[,...] (default " + defaultModeSpecs + ")",
		mode: func(value string) (bench.Mode, error) {
			var eps []float64
			for _, item := range strings.Split(value, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(item), 64)
				if err != nil || v < 0 || v >= 1 {
					return bench.Mode{}, fmt.Errorf("invalid -epsilon entry %q (want a float in [0, 1))", item)
				}
				eps = append(eps, v)
			}
			return bench.EpsilonMode(eps), nil
		},
	},
}

func main() {
	inv, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}
	finishProfiles := startProfiles(inv.cpuProfile, inv.memProfile)
	ok := true
	switch inv.experiment {
	case "figure12":
		ok = runFigure12(inv.plan)
	case "pqblowup":
		runPQBlowup()
	case "ablation":
		runAblation(inv.tables, inv.seed)
	}
	finishProfiles()
	if !ok {
		os.Exit(1)
	}
}

// invocation is a parsed command line.
type invocation struct {
	experiment             string
	cpuProfile, memProfile string
	tables                 int
	seed                   int64
	// plan is the figure12 run; nil for the other experiments.
	plan *plan
}

// plan is a figure12 run worked out from the flags before anything is
// measured, so a typo fails in milliseconds, not after the sequential
// sweep.
type plan struct {
	curves   []bench.Config
	parallel []bench.Spec
	modes    []modeRun
	// run carries the modes' shared Points, Seed and Progress.
	run       bench.RunConfig
	reps      int
	csv, json bool
	baseline  string
}

// modeRun is one requested spec-driven mode and its plan sets.
type modeRun struct {
	mode  bench.Mode
	specs []bench.Spec
}

// caseNames lists the gated rows the plan emits, in report order.
func (p *plan) caseNames() []string {
	var names []string
	for _, c := range p.curves {
		for _, s := range c.Specs() {
			names = append(names, s.String())
		}
	}
	for _, m := range p.modes {
		names = append(names, m.mode.CaseNames(m.specs)...)
	}
	return names
}

// parseArgs parses the command line and, for figure12, plans the run.
func parseArgs(args []string) (*invocation, error) {
	fs := flag.NewFlagSet("mpqbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "figure12", "experiment to run: figure12, pqblowup, ablation")
		quick      = fs.Bool("quick", false, "reduced ranges and repetitions for a fast run")
		reps       = fs.Int("reps", 0, "random queries per data point (default: 25, quick: 5)")
		csv        = fs.Bool("csv", false, "emit CSV instead of a table")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON (per-case ns/op, LPs, plans, workers)")
		workers    = fs.Int("workers", 0, "optimizer worker count of the Figure 12 curves (0 = GOMAXPROCS, 1 = sequential)")
		seed       = fs.Int64("seed", 1, "base random seed")
		shapes     = fs.String("shapes", "chain,star", "comma-separated join graph shapes (chain,star,cycle,clique)")
		params     = fs.String("params", "1,2", "comma-separated parameter counts per curve")
		maxTables  = fs.Int("max-tables", 0, "cap on the table count of every curve (0 = per-shape defaults, quick-reduced with -quick)")
		parallel   = fs.String("parallel", "", "parallel reference points shape:params:tables[,...], run at workers=GOMAXPROCS and reported as parallel_cases (not gated)")
		points     = fs.Int("points", 0, "random pick or certification points per plan set of -picks, -fleet and -epsilon (0 = 256)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this file")
		tables     = fs.Int("tables", 6, "query size for the ablation experiment")
		baseline   = fs.String("baseline", "", "JSON snapshot to diff against (CI regression gate)")
	)
	modeValues := make([]*string, len(modeFlags))
	modeSpecs := make([]*string, len(modeFlags))
	for i, m := range modeFlags {
		modeValues[i] = fs.String(m.name, "", m.usage)
		if m.specsUsage != "" {
			modeSpecs[i] = fs.String(m.name+"-specs", "", m.specsUsage)
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	inv := &invocation{experiment: *experiment, cpuProfile: *cpuProfile, memProfile: *memProfile, tables: *tables, seed: *seed}
	switch *experiment {
	case "pqblowup", "ablation":
		return inv, nil
	case "figure12":
	default:
		return nil, fmt.Errorf("unknown experiment %q", *experiment)
	}

	p := &plan{
		run:      bench.RunConfig{Points: *points, Seed: *seed, Progress: os.Stderr},
		reps:     *reps,
		csv:      *csv,
		json:     *jsonOut,
		baseline: *baseline,
	}
	if p.reps == 0 {
		p.reps = 25
		if *quick {
			p.reps = 5
		}
	}
	var paramCounts []int
	for _, item := range strings.Split(*params, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(item))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -params entry %q", item)
		}
		paramCounts = append(paramCounts, n)
	}
	for _, name := range strings.Split(*shapes, ",") {
		shape, err := workload.ParseShape(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		for _, n := range paramCounts {
			m := bench.DefaultMaxTables(shape, n)
			if *quick {
				m = min(m, bench.QuickMaxTables(shape, n))
			}
			if *maxTables > 0 {
				m = min(m, *maxTables)
			}
			p.curves = append(p.curves, bench.Config{
				Shape:       shape,
				Params:      n,
				MinTables:   2,
				MaxTables:   m,
				Repetitions: p.reps,
				Seed:        *seed,
				Workers:     *workers,
				Progress:    os.Stderr,
			})
		}
	}
	var err error
	if p.parallel, err = parseSpecList(*parallel, "-parallel"); err != nil {
		return nil, err
	}
	for i, m := range modeFlags {
		value, specs, specsFlag := *modeValues[i], *modeValues[i], "-"+m.name
		if m.specsUsage != "" {
			specs, specsFlag = *modeSpecs[i], "-"+m.name+"-specs"
			if value == "" && specs != "" {
				return nil, fmt.Errorf("%s requires -%s", specsFlag, m.name)
			}
			if specs == "" {
				specs = defaultModeSpecs
			}
		}
		if value == "" {
			continue
		}
		mode, err := m.mode(value)
		if err != nil {
			return nil, err
		}
		list, err := parseSpecList(specs, specsFlag)
		if err != nil {
			return nil, err
		}
		p.modes = append(p.modes, modeRun{mode: mode, specs: list})
	}
	inv.plan = p
	return inv, nil
}

// parseSpecList parses a shape:params:tables list; flagName labels
// errors. An empty list is valid and yields no specs.
func parseSpecList(list, flagName string) ([]bench.Spec, error) {
	if list == "" {
		return nil, nil
	}
	var specs []bench.Spec
	for _, item := range strings.Split(list, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("invalid %s entry %q (want shape:params:tables)", flagName, item)
		}
		s, err := workload.ParseShape(parts[0])
		if err != nil {
			return nil, err
		}
		p, err1 := strconv.Atoi(parts[1])
		n, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || p < 1 || n < 2 {
			return nil, fmt.Errorf("invalid %s entry %q", flagName, item)
		}
		if s == workload.Cycle && n < 3 {
			return nil, fmt.Errorf("invalid %s entry %q: a cycle needs at least 3 tables", flagName, item)
		}
		specs = append(specs, bench.Spec{Shape: s, Params: p, Tables: n})
	}
	return specs, nil
}

// fatal reports a hard error of a running experiment and exits.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "error: %v\n", err)
	os.Exit(1)
}

// runFigure12 executes the figure12 experiment and its spec-driven
// modes; it returns false when the baseline gate fails (hard errors
// exit directly).
func runFigure12(p *plan) bool {
	start := time.Now()
	var series []*bench.Series
	for _, c := range p.curves {
		s, err := bench.RunSeries(c)
		if err != nil {
			fatal(err)
		}
		series = append(series, s)
	}
	rep := bench.BuildJSONReport(series)
	rep.NumCPU = runtime.NumCPU()
	rep.ParallelCases = runParallelPoints(p)
	for _, m := range p.modes {
		cfg := p.run
		cfg.Specs = m.specs
		rows, err := m.mode.Run(context.Background(), cfg)
		if err != nil {
			fatal(err)
		}
		rep.Cases = append(rep.Cases, rows...)
	}
	fmt.Fprintf(os.Stderr, "total experiment time: %v\n", time.Since(start))
	switch {
	case p.json:
		if err := bench.WriteJSONReport(os.Stdout, rep); err != nil {
			fatal(err)
		}
	case p.csv:
		bench.FormatCSV(os.Stdout, series)
	default:
		bench.FormatTable(os.Stdout, series)
	}
	if p.baseline != "" {
		return compareAgainstBaseline(os.Stderr, p.baseline, rep)
	}
	return true
}

// runParallelPoints measures the -parallel reference points at the
// pipelined scheduler's full parallelism (workers = GOMAXPROCS).
func runParallelPoints(p *plan) []bench.JSONCase {
	var cases []bench.JSONCase
	for _, s := range p.parallel {
		pt, err := bench.RunPoint(bench.Config{
			Shape:       s.Shape,
			Params:      s.Params,
			Repetitions: p.reps,
			Seed:        p.run.Seed,
			// Workers 0 keeps the optimizer default: GOMAXPROCS.
		}, s.Tables)
		if err != nil {
			fatal(err)
		}
		jc := bench.PointCase(s.Shape, s.Params, pt, parallelPrefix)
		// Parallel wall-clock is only meaningful relative to the
		// machine's core count; record it with the case.
		jc.NumCPU = runtime.NumCPU()
		cases = append(cases, jc)
		fmt.Fprintf(os.Stderr, "parallel %s workers=%d time=%v plans=%d LPs=%d\n",
			s, pt.Workers, pt.MedianTime, pt.MedianPlans, pt.MedianLPs)
	}
	return cases
}

// compareAgainstBaseline diffs the measured report against the
// snapshot at path, printing drifts and a summary to w. Returns false
// when the gate fails.
func compareAgainstBaseline(w io.Writer, path string, rep *bench.JSONReport) bool {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return false
	}
	defer f.Close()
	base, err := bench.LoadJSONReport(f)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return false
	}
	failures, warnings := bench.Compare(base, rep, bench.DefaultCompareOptions())
	for _, d := range warnings {
		fmt.Fprintln(w, d)
	}
	for _, d := range failures {
		fmt.Fprintln(w, d)
	}
	if len(failures) > 0 {
		fmt.Fprintf(w, "bench regression gate: %d failure(s) against %s\n", len(failures), path)
		return false
	}
	fmt.Fprintf(w, "bench regression gate: OK against %s (%d cases, %d warning(s))\n",
		path, len(base.Cases), len(warnings))
	return true
}

// startProfiles begins the requested pprof captures and returns the
// finalizer that stops the CPU profile and writes the heap profile
// after a final collection. Error paths that os.Exit before the
// finalizer runs lose the profiles — a profile of a failed run would
// mostly profile the failure.
func startProfiles(cpu, mem string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "error: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", cpu)
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(2)
			}
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "error: -memprofile: %v\n", err)
				os.Exit(2)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile written to %s\n", mem)
		}
	}
}

// runPQBlowup demonstrates the Section 1.1 argument: encoding a cost
// metric as a parameter makes the PQ result set larger than the MPQ
// result set by an arbitrary factor.
func runPQBlowup() {
	fmt.Println("Result-set sizes when encoding the fee metric as a parameter (Section 1.1):")
	fmt.Printf("%-12s %-12s %-16s %s\n", "plans (k)", "MPQ result", "PQ-encoded", "blow-up")
	for _, k := range []int{10, 20, 50, 100, 200} {
		mStar := 5
		alts, space := baseline.BlowupInstance(k, mStar)
		schema := core.StaticSchema(1, []float64{0}, []float64{1})
		model := &core.StaticModel{ParamSpace: space, Metrics: []string{"time", "fees"}, Plans: alts}
		res, err := core.OptimizeCtx(context.Background(), schema, model, core.DefaultOptions())
		if err != nil {
			fatal(err)
		}
		algebra := core.NewPWLAlgebra(geometry.NewSolver(geometry.Config{}), 2)
		pqSize := baseline.PQEncodedSetSize(alts, algebra, geometry.Vector{0.5})
		fmt.Printf("%-12d %-12d %-16d %.1fx\n", k, len(res.Plans), pqSize, float64(pqSize)/float64(len(res.Plans)))
	}
}

// runAblation measures the Section 6.2 refinements: relevance points,
// redundant-cutout elimination, and the emptiness strategy.
func runAblation(tables int, seed int64) {
	type variant struct {
		name string
		opts core.Options
	}
	mk := func(strategy region.EmptinessStrategy, points int, elim bool) core.Options {
		return core.Options{
			Region: region.Options{
				Strategy:                  strategy,
				RelevancePoints:           points,
				EliminateRedundantCutouts: elim,
			},
			PostponeCartesian: true,
		}
	}
	variants := []variant{
		{"all refinements (bemporad)", mk(region.StrategyBemporad, 16, true)},
		{"all refinements (coverdiff)", mk(region.StrategyCoverDiff, 16, true)},
		{"no relevance points", mk(region.StrategyBemporad, 0, true)},
		{"no cutout elimination", mk(region.StrategyBemporad, 16, false)},
		{"no refinements", mk(region.StrategyBemporad, 0, false)},
		{"no cartesian postponement", func() core.Options {
			o := mk(region.StrategyBemporad, 16, true)
			o.PostponeCartesian = false
			return o
		}()},
	}
	fmt.Printf("Ablation on chain queries, %d tables, 1 parameter (medians of 5):\n", tables)
	fmt.Printf("%-30s %-14s %-14s %-12s\n", "variant", "time(ms)", "LPs", "plans")
	for _, v := range variants {
		opts := v.opts
		cfg := bench.Config{
			Shape:       workload.Chain,
			Params:      1,
			Repetitions: 5,
			Seed:        seed,
			Options:     &opts,
		}
		p, err := bench.RunPoint(cfg, tables)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-30s %-14.1f %-14d %-12d\n", v.name,
			float64(p.MedianTime.Microseconds())/1000, p.MedianLPs, p.MedianPlans)
	}
}
