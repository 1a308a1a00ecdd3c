package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// template is a generated query template, as a Prepare request names it.
type template struct {
	Shape  string `json:"shape"`
	Tables int    `json:"tables"`
	Params int    `json:"params"`
	Seed   int64  `json:"seed"`
}

func (t template) String() string {
	return fmt.Sprintf("%s-%dp/%dt/s%d", t.Shape, t.Params, t.Tables, t.Seed)
}

func tpl(shape string, params, tables int, seed int64) template {
	return template{Shape: shape, Tables: tables, Params: params, Seed: seed}
}

// coldPool is the prepare-cold template list: all four shapes at one and
// two parameters, each single Prepare roughly 10 ms to 0.6 s on one
// 2-CPU sandbox core (no template dominates a pass). One-parameter
// templates spend a third or more of optimize time in pwl; two-parameter
// ones in region differences and LPs.
var coldPool = []template{
	tpl("chain", 1, 7, 1), tpl("chain", 1, 8, 2), tpl("chain", 1, 9, 1),
	tpl("star", 1, 5, 1), tpl("star", 1, 6, 1), tpl("star", 1, 7, 2),
	tpl("cycle", 1, 5, 1), tpl("cycle", 1, 6, 1), tpl("cycle", 1, 7, 2),
	tpl("clique", 1, 5, 1), tpl("clique", 1, 6, 1), tpl("clique", 1, 7, 2),
	tpl("chain", 2, 3, 1), tpl("chain", 2, 4, 2), tpl("chain", 2, 5, 2),
	tpl("star", 2, 3, 2), tpl("star", 2, 4, 1), tpl("star", 2, 5, 2),
	tpl("cycle", 2, 3, 2), tpl("cycle", 2, 4, 4),
	tpl("clique", 2, 3, 2), tpl("clique", 2, 4, 2),
}

// hotSet is the pick-hot plan-set list: 14 to 52 candidates per set.
var hotSet = []template{
	tpl("chain", 1, 9, 4), // 16 plans
	tpl("star", 1, 7, 4),  // 14 plans
	tpl("star", 1, 8, 2),  // 24 plans
	tpl("chain", 2, 5, 3), // 20 plans
	tpl("star", 1, 9, 2),  // 52 plans
}

func (t template) config() (workload.Config, error) {
	shape, err := workload.ParseShape(t.Shape)
	if err != nil {
		return workload.Config{}, err
	}
	return workload.Config{Tables: t.Tables, Params: t.Params, Shape: shape, Seed: t.Seed}, nil
}

// reference is the in-process ground truth for one template: the plan
// set core.OptimizeCtx computes, indexed and saved exactly as a server
// saves it.
type reference struct {
	tpl      template
	doc      []byte
	metrics  []string
	space    *geometry.Polytope
	plans    []*core.PlanInfo
	cands    []selection.Candidate
	ix       *index.Index
	lo, hi   []float64   // parameter bounds
	points   [][]float64 // pick points (fillPoints)
	stats    core.Stats
	optimize time.Duration
}

// computeReference optimizes t with one worker and saves the result with
// the pick index, as mpqserve does at its defaults. With a tracer, the
// optimizer runs on the observed algebra and cost model and the
// optimize, index-build and encode calls become spans under parent.
func computeReference(ctx context.Context, t template, tr *tracer, parent int) (*reference, error) {
	cfg, err := t.config()
	if err != nil {
		return nil, err
	}
	schema, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s := geometry.NewSolver(geometry.Config{})
	m, err := cloud.NewModel(schema, cloud.DefaultConfig(), s)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Context = s
	opts.Workers = 1
	var model core.CostModel = m
	var alg *pwlAlgebra
	var obs *costModel
	if tr != nil {
		alg = newPWLAlgebra(s, len(m.MetricNames()))
		obs = &costModel{inner: m, alt: new(leafTimer)}
		opts.Algebra, model = alg, obs
	}
	sp := tr.begin("core.optimize", parent)
	t0 := time.Now()
	res, err := core.OptimizeCtx(ctx, schema, model, opts)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("optimize %v: %w", t, err)
	}
	if tr != nil {
		tr.aggregate("pwl.dom", sp, alg.dom)
		tr.aggregate("pwl.accumulate", sp, alg.acc)
		tr.aggregate("cloud.alternatives", sp, obs.alt)
	}
	ref := &reference{tpl: t, metrics: m.MetricNames(), space: m.Space(), plans: res.Plans, stats: res.Stats, optimize: d}
	ref.lo, ref.hi = schema.ParameterBounds()
	ref.cands = candidates(res.Plans)
	sp = tr.begin("index.build", parent)
	ref.ix, err = index.Build(s, m.Space(), ref.cands, index.Options{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("index %v: %w", t, err)
	}
	var buf bytes.Buffer
	sp = tr.begin("store.encode", parent)
	err = store.SaveIndexed(&buf, ref.metrics, ref.space, res.Plans, ref.ix)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("save %v: %w", t, err)
	}
	ref.doc = buf.Bytes()
	return ref, nil
}

func candidates(plans []*core.PlanInfo) []selection.Candidate {
	out := make([]selection.Candidate, len(plans))
	for i, p := range plans {
		out[i] = selection.Candidate{Plan: p.Plan, Cost: p.Cost.(*pwl.Multi), RR: p.RR}
	}
	return out
}

// computeReferences runs computeReference over ts on up to workers
// goroutines, returning the references in ts order.
func computeReferences(ctx context.Context, ts []template, workers int) ([]*reference, error) {
	refs := make([]*reference, len(ts))
	errs := make([]error, len(ts))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = computeReference(ctx, ts[i], nil, -1)
			}
		}()
	}
	for i := range ts {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// policies cycles through the four selection policies.
var policies = []string{"frontier", "weighted", "bound", "lex"}

// pickReq is the body of /pick and /pickbatch (Point for the one,
// Points for the other).
type pickReq struct {
	Key      string      `json:"key"`
	Point    []float64   `json:"point,omitempty"`
	Points   [][]float64 `json:"points,omitempty"`
	Policy   string      `json:"policy"`
	Weights  []float64   `json:"weights,omitempty"`
	Minimize int         `json:"minimize,omitempty"`
	Bounds   []boundJS   `json:"bounds,omitempty"`
	Order    []int       `json:"order,omitempty"`
}

type boundJS struct {
	Metric int     `json:"metric"`
	Max    float64 `json:"max"`
}

// pointPool is the number of pick points drawn per plan set before a run.
const pointPool = 2048

// fillPoints draws each reference's pick points from the run seed:
// uniform in the parameter box, keeping only points where some plan's
// relevance region contains the point. The rest are the known
// exact-tie holes of the plan sets, where every single-plan policy
// answers "no feasible plan"; excluding them keeps every request
// answerable.
func fillPoints(refs []*reference, seed int64) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(refs); i += 2 {
				ref := refs[i]
				h := fnv.New64a()
				fmt.Fprint(h, ref.tpl)
				rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
				ref.points = ref.points[:0]
				for len(ref.points) < pointPool {
					x := make([]float64, len(ref.lo))
					for j := range x {
						x[j] = ref.lo[j] + (ref.hi[j]-ref.lo[j])*rng.Float64()
					}
					if len(selection.Frontier(ref.cands, x)) > 0 {
						ref.points = append(ref.points, x)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// randomPoint draws one of the reference's pick points.
func randomPoint(rng *rand.Rand, ref *reference) []float64 {
	return ref.points[rng.Intn(len(ref.points))]
}

// randomPolicy fills the policy fields of r; every policy has a feasible
// answer at every point (the bound admits any cost).
func randomPolicy(rng *rand.Rand, r *pickReq, policy string, metrics int) {
	r.Policy = policy
	switch policy {
	case "weighted":
		r.Weights = make([]float64, metrics)
		for i := range r.Weights {
			r.Weights[i] = 0.05 + rng.Float64()
		}
	case "bound":
		r.Minimize = rng.Intn(metrics)
		r.Bounds = []boundJS{{Metric: (r.Minimize + 1) % metrics, Max: 1e300}}
	case "lex":
		r.Order = rng.Perm(metrics)
	}
}
