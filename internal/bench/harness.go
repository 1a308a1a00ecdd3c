package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand" //mpq:rand pick points are drawn from a per-spec seeded generator; byte-reproducible per seed
	"runtime"
	"time"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// Spec names one generated plan set: a join-graph shape, a parameter
// count and a table count (shape:params:tables on the command line).
type Spec struct {
	Shape  workload.Shape
	Params int
	Tables int
}

func (s Spec) String() string {
	return fmt.Sprintf("%s-%dp/tables=%d", s.Shape, s.Params, s.Tables)
}

// RunConfig is what every spec-driven mode shares.
type RunConfig struct {
	Specs []Spec
	// Points is the number of random pick or certification points per
	// plan set; zero selects 256.
	Points int
	// Seed offsets the workload generator and the point sampler. Every
	// mode derives the same per-spec seeds, so a spec run by two modes
	// prepares the same query and samples the same points.
	Seed int64
	// Progress, when non-nil, receives a line per emitted row.
	Progress io.Writer
}

func (cfg RunConfig) workload(spec Spec) workload.Config {
	return workload.Config{
		Tables: spec.Tables,
		Params: spec.Params,
		Shape:  spec.Shape,
		Seed:   cfg.Seed + int64(spec.Tables),
	}
}

func (cfg RunConfig) logf(format string, args ...any) {
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, format, args...)
	}
}

// Mode is one spec-driven experiment of the harness (picks, fleet,
// epsilon, anytime). Per spec it emits one gated row per step, named
// "<Name>/<spec>/<step>", so a run's rows are known before it runs.
type Mode struct {
	// Name prefixes the mode's row names.
	Name string
	// Steps label the rows each spec yields, in emission order.
	Steps []string
	run   func(ctx context.Context, cfg RunConfig, spec Spec) ([]JSONCase, error)
}

// CaseNames lists the rows Run emits for specs, in order.
func (m Mode) CaseNames(specs []Spec) []string {
	var names []string
	for _, spec := range specs {
		for _, step := range m.Steps {
			names = append(names, m.Name+"/"+spec.String()+"/"+step)
		}
	}
	return names
}

// Run executes the mode over cfg.Specs. ctx flows into the requests
// of modes that drive servers.
func (m Mode) Run(ctx context.Context, cfg RunConfig) ([]JSONCase, error) {
	if cfg.Points <= 0 {
		cfg.Points = 256
	}
	var out []JSONCase
	for _, spec := range cfg.Specs {
		rows, err := m.run(ctx, cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: %s %s: %w", m.Name, spec, err)
		}
		names := m.CaseNames([]Spec{spec})
		for i := range rows {
			rows[i].Case = names[i]
		}
		out = append(out, rows...)
	}
	return out, nil
}

// specRow starts a spec's row from one sequential prepare's
// deterministic counts (gated) and a measured per-op time (drift
// warns).
func specRow(spec Spec, st core.Stats, reps int, ns int64) JSONCase {
	return JSONCase{
		Shape:        spec.Shape.String(),
		Params:       spec.Params,
		Tables:       spec.Tables,
		NsPerOp:      ns,
		TimeMs:       float64(ns) / 1e6,
		CreatedPlans: st.CreatedPlans,
		SolvedLPs:    st.Geometry.LPs,
		FinalPlans:   st.FinalPlans,
		Workers:      1,
		Repetitions:  reps,
	}
}

// optimize generates a workload, builds its cloud cost model and runs
// the optimizer on a fresh solver.
func optimize(wl workload.Config, cloudCfg cloud.Config, opts core.Options) (*core.Result, *cloud.Model, error) {
	schema, err := workload.Generate(wl)
	if err != nil {
		return nil, nil, err
	}
	ctx := geometry.NewContext()
	model, err := cloud.NewModel(schema, cloudCfg, ctx)
	if err != nil {
		return nil, nil, err
	}
	opts.Context = ctx
	res, err := core.Optimize(schema, model, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, model, nil
}

// tier is one prepared plan set as a server of its precision would
// load it.
type tier struct {
	stats   core.Stats
	cands   []selection.Candidate
	metrics int
	space   *geometry.Polytope
}

// prepareTier optimizes a workload at one approximation factor
// sequentially (so the plan and LP counters stay gate-comparable) and
// round-trips the result through the store: the candidates are the
// serving layer's exact bytes.
func prepareTier(wl workload.Config, epsilon float64) (*tier, error) {
	opts := core.DefaultOptions()
	opts.Workers = 1
	opts.Epsilon = epsilon
	res, model, err := optimize(wl, cloud.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := store.SaveIndexedEpsilon(&buf, model.MetricNames(), model.Space(), res.Plans, nil, epsilon); err != nil {
		return nil, err
	}
	ps, err := store.Load(&buf)
	if err != nil {
		return nil, err
	}
	if ps.Epsilon != epsilon {
		return nil, fmt.Errorf("store round trip changed epsilon %g to %g", epsilon, ps.Epsilon)
	}
	cands := make([]selection.Candidate, len(ps.Plans))
	for i, lp := range ps.Plans {
		cands[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	return &tier{stats: res.Stats, cands: cands, metrics: len(ps.Metrics), space: ps.Space}, nil
}

// timeBest measures per-op latency: rounds interleave the fns (fns[0],
// fns[1], ..., fns[0], ...) with a collection before each call, so
// machine noise and collector state hit every path alike, and each
// fn's fastest round divided by ops counts.
func timeBest(ops int, fns ...func() error) ([]int64, error) {
	const rounds = 3
	best := make([]int64, len(fns))
	for round := 0; round < rounds; round++ {
		for i, fn := range fns {
			runtime.GC()
			start := time.Now() //mpq:wallclock benchmark timing is the measurement itself
			if err := fn(); err != nil {
				return nil, err
			}
			ns := time.Since(start).Nanoseconds() / int64(ops) //mpq:wallclock benchmark timing is the measurement itself
			if round == 0 || ns < best[i] {
				best[i] = ns
			}
		}
	}
	return best, nil
}

// pickSweep is one timing round of pick: every point under every
// policy.
func pickSweep(points []geometry.Vector, pick func(x geometry.Vector, policy int)) func() error {
	return func() error {
		for _, x := range points {
			for p := 0; p < numPickPolicies; p++ {
				pick(x, p)
			}
		}
		return nil
	}
}

// points samples cfg.Points deterministic pseudo-random points inside
// spec's parameter space.
func (cfg RunConfig) points(space *geometry.Polytope, spec Spec) ([]geometry.Vector, error) {
	lo, hi, ok := geometry.NewContext().BoundingBox(space)
	if !ok {
		return nil, fmt.Errorf("parameter space without bounding box")
	}
	n := cfg.Points
	rng := rand.New(rand.NewSource(cfg.Seed + int64(spec.Tables)*7919))
	pts := make([]geometry.Vector, 0, n)
	for attempts := 0; len(pts) < n && attempts < 1000*n; attempts++ {
		x := geometry.NewVector(space.Dim())
		for d := range x {
			x[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
		}
		if space.ContainsPoint(x, geometry.CompareEps) {
			pts = append(pts, x)
		}
	}
	if len(pts) < n {
		return nil, fmt.Errorf("could not sample %d points inside the parameter space", n)
	}
	return pts, nil
}

const numPickPolicies = 4

// policyParams fixes the experiment's preference parameters for a
// metric count, built once per spec so the timed loops pay no
// per-pick parameter allocations.
type policyParams struct {
	weights []float64
	bounds  []selection.Bound
	order   []int
}

func newPolicyParams(metrics int) policyParams {
	p := policyParams{
		weights: make([]float64, metrics),
		bounds:  []selection.Bound{{Metric: metrics - 1, Max: 1e300}},
		order:   make([]int, metrics),
	}
	p.weights[0] = 1
	for i := 1; i < metrics; i++ {
		p.weights[i] = 10000
	}
	for i := range p.order {
		p.order[i] = metrics - 1 - i
	}
	return p
}

// runPolicy executes one of the four selection policies.
func (p policyParams) runPolicy(cands []selection.Candidate, x geometry.Vector, policy int) ([]selection.Choice, error) {
	switch policy {
	case 0:
		return selection.Frontier(cands, x), nil
	case 1:
		c, err := selection.WeightedSum(cands, x, p.weights)
		return []selection.Choice{c}, err
	case 2:
		c, err := selection.MinimizeSubjectTo(cands, x, 0, p.bounds)
		return []selection.Choice{c}, err
	default:
		c, err := selection.Lexicographic(cands, x, p.order)
		return []selection.Choice{c}, err
	}
}

// pickRequest is runPolicy as a server request.
func (p policyParams) pickRequest(key string, x geometry.Vector, policy int) serve.PickRequest {
	req := serve.PickRequest{Key: key, Point: x}
	switch policy {
	case 0:
		req.Policy = serve.PolicyFrontier
	case 1:
		req.Policy = serve.PolicyWeightedSum
		req.Weights = p.weights
	case 2:
		req.Policy = serve.PolicyMinimizeSubjectTo
		req.Minimize = 0
		req.Bounds = p.bounds
	default:
		req.Policy = serve.PolicyLexicographic
		req.Order = p.order
	}
	return req
}
