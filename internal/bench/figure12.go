// Package bench implements the experiment harness reproducing the
// paper's evaluation (Section 7, Figure 12): optimization time, number
// of generated plans, and number of solved linear programs for randomly
// generated chain and star queries with one and two parameters, as
// medians over repeated runs with different random queries.
//
// The serving-side experiments are spec-driven Modes (picks, fleet,
// epsilon, anytime) over one path: a Spec is prepared into a tier
// (sequential optimize plus store round trip), measured, and emitted as
// JSONCase rows. Figure 12 points and mode rows share one gated list,
// which Compare diffs against a baseline snapshot.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/workload"
)

// Point is one data point of the Figure 12 series: medians over
// Repetitions random queries of one size.
type Point struct {
	Tables int
	// MedianTime is the median optimization time.
	MedianTime time.Duration
	// MedianPlans is the median number of created plans (including
	// partial and pruned plans).
	MedianPlans int
	// MedianLPs is the median number of solved linear programs.
	MedianLPs int64
	// MedianFinal is the median Pareto-plan-set size for the full query
	// (not part of Figure 12 but reported for Theorem 6 context).
	MedianFinal int
	// Repetitions is the number of random queries aggregated.
	Repetitions int
	// Workers is the optimizer worker count the runs used.
	Workers int
	// MedianUtilization is the median of the runs' pipeline
	// utilizations (Stats.PipelineUtilization) — how busy the
	// dependency scheduler kept the worker pool. Informational: a
	// scheduling metric, never gated.
	MedianUtilization float64
}

// Series is one curve of Figure 12: a shape and parameter count over a
// range of table counts.
type Series struct {
	Shape  workload.Shape
	Params int
	Points []Point
}

// Config controls the experiment scale.
type Config struct {
	// Shape of the join graph (chain and star in the paper).
	Shape workload.Shape
	// Params is the number of parameters (1 and 2 in the paper).
	Params int
	// MinTables and MaxTables bound the query sizes (2..12 for one
	// parameter and 2..10 for two parameters in the paper).
	MinTables, MaxTables int
	// Repetitions is the number of random queries per point (25 in the
	// paper).
	Repetitions int
	// Seed offsets the workload generator seeds, making runs
	// reproducible.
	Seed int64
	// Optimizer options; zero value means core.DefaultOptions.
	Options *core.Options
	// Workers overrides the optimizer worker count for every run
	// (0 keeps the Options value, whose own zero selects GOMAXPROCS).
	Workers int
	// Cloud cost model configuration; zero value means
	// cloud.DefaultConfig.
	Cloud *cloud.Config
	// Progress, when non-nil, receives a line per completed point.
	Progress io.Writer
}

// DefaultMaxTables returns the full-scale curve length for a shape and
// parameter count: the paper's ranges (2..12 tables for one parameter,
// 2..10 for two) for chain and star, and reduced ranges for the denser
// extension shapes and for three parameters, where work grows with both
// edge density and piece counts.
func DefaultMaxTables(shape workload.Shape, params int) int {
	switch shape {
	case workload.Cycle:
		switch {
		case params <= 1:
			return 10
		case params == 2:
			return 8
		default:
			return 4
		}
	case workload.Clique:
		switch {
		case params <= 1:
			return 8
		case params == 2:
			return 6
		default:
			return 4
		}
	default: // chain, star
		switch {
		case params <= 1:
			return 12
		case params == 2:
			return 10
		default:
			return 5
		}
	}
}

// QuickMaxTables returns the reduced curve length of quick runs (CI
// smoke and the bench-regression gate). Three-parameter curves stop at
// three tables: piece counts grow as cells^d · d!, so even one more
// table multiplies quick-run time by two orders of magnitude.
func QuickMaxTables(shape workload.Shape, params int) int {
	if params >= 3 {
		return 3
	}
	switch shape {
	case workload.Cycle:
		if params <= 1 {
			return 8
		}
		return 6
	case workload.Clique:
		if params <= 1 {
			return 6
		}
		return 5
	case workload.Star:
		if params <= 1 {
			return 7
		}
		return 5
	default: // chain
		if params <= 1 {
			return 8
		}
		return 6
	}
}

// Specs lists the curve's points: MinTables (at least 2, and 3 for a
// cycle) through MaxTables.
func (cfg Config) Specs() []Spec {
	minTables := max(cfg.MinTables, 2)
	if cfg.Shape == workload.Cycle {
		// A cycle needs at least three tables.
		minTables = max(minTables, 3)
	}
	var specs []Spec
	for n := minTables; n <= cfg.MaxTables; n++ {
		specs = append(specs, Spec{Shape: cfg.Shape, Params: cfg.Params, Tables: n})
	}
	return specs
}

// RunSeries executes the experiment for one curve.
func RunSeries(cfg Config) (*Series, error) {
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	s := &Series{Shape: cfg.Shape, Params: cfg.Params}
	for _, spec := range cfg.Specs() {
		p, err := RunPoint(cfg, spec.Tables)
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, *p)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%s %dp n=%-2d  time=%-12v plans=%-7d LPs=%-8d final=%d\n",
				cfg.Shape, cfg.Params, spec.Tables, p.MedianTime, p.MedianPlans, p.MedianLPs, p.MedianFinal)
		}
	}
	return s, nil
}

// RunPoint executes all repetitions for one query size and aggregates
// medians.
func RunPoint(cfg Config, tables int) (*Point, error) {
	times := make([]time.Duration, 0, cfg.Repetitions)
	plans := make([]int, 0, cfg.Repetitions)
	lps := make([]int64, 0, cfg.Repetitions)
	finals := make([]int, 0, cfg.Repetitions)
	utils := make([]float64, 0, cfg.Repetitions)
	params := cfg.Params
	if params > tables {
		params = tables
	}
	workers := 0
	for rep := 0; rep < cfg.Repetitions; rep++ {
		seed := cfg.Seed + int64(rep)*1000 + int64(tables)
		stats, err := RunOnce(cfg, tables, params, seed)
		if err != nil {
			return nil, err
		}
		times = append(times, stats.Duration)
		plans = append(plans, stats.CreatedPlans)
		lps = append(lps, stats.Geometry.LPs)
		finals = append(finals, stats.FinalPlans)
		utils = append(utils, stats.PipelineUtilization())
		workers = stats.Workers
	}
	return &Point{
		Tables:            tables,
		MedianTime:        medianDuration(times),
		MedianPlans:       medianInt(plans),
		MedianLPs:         medianInt64(lps),
		MedianFinal:       medianInt(finals),
		Repetitions:       cfg.Repetitions,
		Workers:           workers,
		MedianUtilization: medianFloat(utils),
	}, nil
}

// RunOnce optimizes a single random query and returns the optimizer
// statistics.
func RunOnce(cfg Config, tables, params int, seed int64) (*core.Stats, error) {
	cloudCfg := cloud.DefaultConfig()
	if cfg.Cloud != nil {
		cloudCfg = *cfg.Cloud
	}
	opts := core.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	if cfg.Workers != 0 {
		opts.Workers = cfg.Workers
	}
	res, _, err := optimize(workload.Config{Tables: tables, Params: params, Shape: cfg.Shape, Seed: seed}, cloudCfg, opts)
	if err != nil {
		return nil, err
	}
	return &res.Stats, nil
}

// FormatTable renders series as the text analogue of Figure 12.
func FormatTable(w io.Writer, series []*Series) {
	for _, s := range series {
		fmt.Fprintf(w, "\n=== %s queries, %d parameter(s) — medians of %d random queries ===\n",
			s.Shape, s.Params, repsOf(s))
		fmt.Fprintf(w, "%-8s %-14s %-16s %-16s %s\n", "tables", "time(ms)", "created plans", "solved LPs", "final plans")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-8d %-14.1f %-16d %-16d %d\n",
				p.Tables, float64(p.MedianTime.Microseconds())/1000, p.MedianPlans, p.MedianLPs, p.MedianFinal)
		}
	}
}

// FormatCSV renders series as CSV rows for plotting.
func FormatCSV(w io.Writer, series []*Series) {
	fmt.Fprintln(w, "shape,params,tables,time_ms,created_plans,solved_lps,final_plans,repetitions")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s,%d,%d,%.3f,%d,%d,%d,%d\n",
				s.Shape, s.Params, p.Tables,
				float64(p.MedianTime.Microseconds())/1000,
				p.MedianPlans, p.MedianLPs, p.MedianFinal, p.Repetitions)
		}
	}
}

// JSONCase is one machine-readable result row of FormatJSON.
type JSONCase struct {
	Case         string  `json:"case"`
	Shape        string  `json:"shape"`
	Params       int     `json:"params"`
	Tables       int     `json:"tables"`
	NsPerOp      int64   `json:"ns_per_op"`
	TimeMs       float64 `json:"time_ms"`
	CreatedPlans int     `json:"created_plans"`
	SolvedLPs    int64   `json:"solved_lps"`
	FinalPlans   int     `json:"final_plans"`
	Workers      int     `json:"workers"`
	Repetitions  int     `json:"repetitions"`
	// PipelineUtilization is the median worker-pool utilization of the
	// optimizer's dependency scheduler (informational, never gated;
	// exactly 1 for sequential runs, omitted when unknown).
	PipelineUtilization float64 `json:"pipeline_utilization,omitempty"`
	// NumCPU records runtime.NumCPU() of the measuring machine for the
	// parallel and fleet cases (informational, never gated): it makes
	// the "utilization 1.0 on a 1-CPU box is vacuous" caveat
	// machine-checkable instead of a footnote.
	NumCPU int `json:"num_cpu,omitempty"`
	// SharedHitRate is the fraction of a fleet case's Prepares served
	// from the shared plan-set store (fleet cases only; gated — drift
	// beyond the plan tolerance fails).
	SharedHitRate float64 `json:"shared_hit_rate,omitempty"`
	// Epsilon is the approximation factor of an epsilon case; zero
	// (omitted) marks an exact row.
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxRegret is the certified worst per-metric cost ratio of the ε
	// tier's answers against the exact frontier at sampled points
	// (epsilon cases only). Gated for ε > 0 rows: a current value
	// above (1+ε) fails — the approximation contract replaces plan
	// equality there.
	MaxRegret float64 `json:"max_regret,omitempty"`
	// PlanReduction and LPReduction are the fractions of the exact
	// reference's final plans and solved LPs the ε tier avoided
	// (informational, never gated).
	PlanReduction float64 `json:"plan_reduction,omitempty"`
	LPReduction   float64 `json:"lp_reduction,omitempty"`
}

// JSONReport is the envelope FormatJSON emits, so snapshots carry their
// provenance alongside the rows.
type JSONReport struct {
	Experiment string `json:"experiment"`
	// Cases are the gated rows: the Figure 12 points plus the rows of
	// every spec-driven mode, whose names carry the mode as a prefix
	// ("picks/", "fleet/", "epsilon/", "anytime/").
	Cases []JSONCase `json:"cases"`
	// ParallelCases are informational wall-clock reference points run at
	// a parallel worker count (pipelining-sensitive shapes at Workers =
	// GOMAXPROCS), never compared: parallel wall-clock depends on the
	// machine's core count, while the plan and LP counts of these rows
	// match the sequential cases by the scheduler's determinism contract.
	ParallelCases []JSONCase `json:"parallel_cases,omitempty"`
	// NumCPU records runtime.NumCPU() of the measuring machine
	// (informational, never gated): parallel wall-clock numbers and
	// utilization figures are vacuous on a single-CPU runner, and CI
	// surfaces that from this field instead of a footnote.
	NumCPU int `json:"num_cpu,omitempty"`
}

// BuildJSONReport converts series into the machine-readable report
// form used by FormatJSON and the CI regression gate.
func BuildJSONReport(series []*Series) *JSONReport {
	rep := &JSONReport{Experiment: "figure12"}
	for _, s := range series {
		for i := range s.Points {
			rep.Cases = append(rep.Cases, PointCase(s.Shape, s.Params, &s.Points[i], ""))
		}
	}
	return rep
}

// FormatJSON renders series as an indented JSON report for tooling
// (perf tracking, CI comparisons).
func FormatJSON(w io.Writer, series []*Series) error {
	return WriteJSONReport(w, BuildJSONReport(series))
}

// WriteJSONReport writes a report (e.g. one extended with parallel
// reference cases) as indented JSON.
func WriteJSONReport(w io.Writer, rep *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// PointCase converts one measured point into a JSON case row with the
// given name prefix.
func PointCase(shape workload.Shape, params int, p *Point, prefix string) JSONCase {
	return JSONCase{
		Case:                prefix + Spec{Shape: shape, Params: params, Tables: p.Tables}.String(),
		Shape:               shape.String(),
		Params:              params,
		Tables:              p.Tables,
		NsPerOp:             p.MedianTime.Nanoseconds(),
		TimeMs:              float64(p.MedianTime.Microseconds()) / 1000,
		CreatedPlans:        p.MedianPlans,
		SolvedLPs:           p.MedianLPs,
		FinalPlans:          p.MedianFinal,
		Workers:             p.Workers,
		Repetitions:         p.Repetitions,
		PipelineUtilization: p.MedianUtilization,
	}
}

func repsOf(s *Series) int {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[0].Repetitions
}

func medianDuration(v []time.Duration) time.Duration {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

func medianInt(v []int) int {
	sort.Ints(v)
	return v[len(v)/2]
}

func medianInt64(v []int64) int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

func medianFloat(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}
