package index_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// buildWorkers returns the index build parallelism the equivalence
// property runs with: the CI worker-count matrix (MPQ_TEST_WORKERS, 0
// meaning GOMAXPROCS) when set, otherwise GOMAXPROCS — so the race job
// exercises concurrent subtree builds.
func buildWorkers(t *testing.T) int {
	if env := os.Getenv("MPQ_TEST_WORKERS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("MPQ_TEST_WORKERS=%q: %v", env, err)
		}
		if n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// loaded memoizes loadSet per workload: several tests index the same
// plan sets, and optimizing them dominates the package's run time under
// -race. The sets are read-only once loaded.
var loaded struct {
	sync.Mutex
	sets map[workload.Config]loadedSet
}

type loadedSet struct {
	ps     *store.PlanSet
	cands  []selection.Candidate
	solver *geometry.Solver
}

// loadSet optimizes a workload and round-trips it through the store
// format, returning the serving-side candidate set.
func loadSet(t testing.TB, cfg workload.Config) (*store.PlanSet, []selection.Candidate, *geometry.Solver) {
	t.Helper()
	loaded.Lock()
	defer loaded.Unlock()
	if l, ok := loaded.sets[cfg]; ok {
		return l.ps, l.cands, l.solver
	}
	schema, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Context = ctx
	opts.Workers = 1
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
		t.Fatal(err)
	}
	ps, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]selection.Candidate, len(ps.Plans))
	for i, lp := range ps.Plans {
		cands[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	if loaded.sets == nil {
		loaded.sets = make(map[workload.Config]loadedSet)
	}
	loaded.sets[cfg] = loadedSet{ps, cands, ctx}
	return ps, cands, ctx
}

// randomPoints returns deterministic pseudo-random points inside the
// parameter space (a box for all generated workloads), including points
// snapped onto the box faces to stress cell boundaries.
func randomPoints(t *testing.T, s *geometry.Solver, space *geometry.Polytope, n int, seed int64) []geometry.Vector {
	t.Helper()
	lo, hi, ok := s.BoundingBox(space)
	if !ok {
		t.Fatal("parameter space without bounding box")
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vector, 0, n)
	for len(pts) < n {
		x := geometry.NewVector(space.Dim())
		for d := range x {
			x[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			// Every eighth coordinate lands exactly on a face.
			if rng.Intn(8) == 0 {
				if rng.Intn(2) == 0 {
					x[d] = lo[d]
				} else {
					x[d] = hi[d]
				}
			}
		}
		if space.ContainsPoint(x, 1e-9) {
			pts = append(pts, x)
		}
	}
	return pts
}

// renderPolicy runs one policy and renders result plus error so the
// comparison covers both.
func renderPolicy(cands []selection.Candidate, x geometry.Vector, policy int) string {
	switch policy {
	case 0:
		return fmt.Sprintf("%v", selection.Frontier(cands, x))
	case 1:
		c, err := selection.WeightedSum(cands, x, []float64{1, 10000})
		return fmt.Sprintf("%v|%v", c, err)
	case 2:
		c, err := selection.MinimizeSubjectTo(cands, x, 0, []selection.Bound{{Metric: 1, Max: 1e300}})
		return fmt.Sprintf("%v|%v", c, err)
	default:
		c, err := selection.Lexicographic(cands, x, []int{1, 0})
		return fmt.Sprintf("%v|%v", c, err)
	}
}

var policyNames = []string{"frontier", "weighted", "bound", "lex"}

// TestIndexLinearEquivalence is the index's central property: for
// random plan sets of every join-graph shape and random parameter
// points, every selection policy returns byte-identical results through
// the index (leaf candidate subsets with piece-restricted costs) and
// through the full linear scan. Run under -race, the parallel subtree
// build is exercised too (MPQ_TEST_WORKERS pins the parallelism in the
// CI matrix).
func TestIndexLinearEquivalence(t *testing.T) {
	cases := []workload.Config{
		{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 3},
		{Tables: 5, Params: 1, Shape: workload.Star, Seed: 11},
		{Tables: 5, Params: 2, Shape: workload.Cycle, Seed: 5},
		{Tables: 4, Params: 2, Shape: workload.Clique, Seed: 7},
	}
	workers := buildWorkers(t)
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("%s-%dp-%dt", cfg.Shape, cfg.Params, cfg.Tables), func(t *testing.T) {
			ps, cands, solver := loadSet(t, cfg)
			ix, err := index.Build(solver, ps.Space, cands, index.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ix.Leaves() < 1 {
				t.Fatalf("index with %d leaves", ix.Leaves())
			}
			leafCands := ix.LeafCandidates(cands)
			points := randomPoints(t, solver, ps.Space, 200, 99+cfg.Seed)
			misrouted := 0
			for _, x := range points {
				leaf, ids, ok := ix.Locate(x)
				sub := cands
				if ok {
					sub = leafCands[leaf]
					if len(sub) != len(ids) {
						t.Fatalf("leaf %d: %d materialized candidates, %d ids", leaf, len(sub), len(ids))
					}
				} else {
					misrouted++
				}
				// The filtered evaluation must be identical, not just the
				// policy outcome: omitted candidates are irrelevant at x
				// and restricted costs evaluate identically.
				full := selection.Evaluate(cands, x)
				viaIndex := selection.Evaluate(sub, x)
				if !reflect.DeepEqual(full, viaIndex) {
					t.Fatalf("Evaluate at %v differs: linear %v, index %v", x, full, viaIndex)
				}
				for p := range policyNames {
					lin := renderPolicy(cands, x, p)
					idx := renderPolicy(sub, x, p)
					if lin != idx {
						t.Errorf("%s at %v: linear %s, index %s", policyNames[p], x, lin, idx)
					}
				}
			}
			if misrouted > 0 {
				t.Errorf("%d of %d in-space points fell outside the index box", misrouted, len(points))
			}
		})
	}
}

// TestBuildDeterministicAcrossWorkers: the tree (and hence the
// persisted stanza) must not depend on build parallelism.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	ps, cands, solver := loadSet(t, workload.Config{Tables: 5, Params: 2, Shape: workload.Star, Seed: 2})
	base, err := index.Build(solver, ps.Space, cands, index.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		ix, err := index.Build(solver, ps.Space, cands, index.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Snapshot(), ix.Snapshot()) {
			t.Errorf("workers=%d: tree differs from the sequential build", workers)
		}
	}
}

// TestLocateOutsideBox: points outside the padded parameter box are
// reported, so callers fall back to the linear scan instead of being
// routed to an unsound cell.
func TestLocateOutsideBox(t *testing.T) {
	ps, cands, solver := loadSet(t, workload.Config{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 8})
	ix, err := index.Build(solver, ps.Space, cands, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ix.Locate(geometry.Vector{5}); ok {
		t.Error("far-outside point located")
	}
	if _, _, ok := ix.Locate(geometry.Vector{math.NaN()}); ok {
		t.Error("NaN point located")
	}
	if _, _, ok := ix.Locate(geometry.Vector{0.5, 0.5}); ok {
		t.Error("wrong-dimension point located")
	}
	if _, _, ok := ix.Locate(geometry.Vector{0.5}); !ok {
		t.Error("interior point not located")
	}
}

// TestIndexPrunes: on a multi-plan set the index must actually reduce
// the average scanned candidate count below the full set (otherwise it
// is dead weight).
func TestIndexPrunes(t *testing.T) {
	ps, cands, solver := loadSet(t, workload.Config{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 3})
	if len(cands) < 4 {
		t.Skipf("plan set too small (%d plans)", len(cands))
	}
	ix, err := index.Build(solver, ps.Space, cands, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if avg := ix.AvgLeafCandidates(); avg >= float64(len(cands)) {
		t.Errorf("avg %.1f candidates per leaf, full set has %d — index prunes nothing", avg, len(cands))
	}
}

// TestIndexSizeTracksPlanSet: at the default options the leaf budget
// follows the plan set — at most 16 leaves per prunable candidate, not
// a fixed 4,096 spent on splitting the seams between cutouts — and the
// smaller tree keeps every index contract: it is the same at any build
// parallelism, it round-trips through the store byte for byte, and
// every policy picks exactly what the linear scan picks. A document
// written with the former fixed 4,096-leaf budget still loads and
// serves the same picks.
func TestIndexSizeTracksPlanSet(t *testing.T) {
	cases := []workload.Config{{Tables: 4, Params: 2, Shape: workload.Chain, Seed: 2}}
	for _, cfg := range viewCases {
		if cfg.Params == 2 {
			cases = append(cases, cfg)
		}
	}
	for _, cfg := range cases {
		t.Run(caseName(cfg), func(t *testing.T) {
			ps, cands, solver := loadSet(t, cfg)
			prunable := 0
			for _, c := range cands {
				if c.RR != nil && c.RR.NumCutouts() > 0 {
					prunable++
				}
			}
			ix, err := index.Build(solver, ps.Space, cands, index.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			old, err := index.Build(solver, ps.Space, cands, index.Options{MaxLeaves: 4096})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d plans, %d prunable: %d leaves (4,096 budget: %d)", len(cands), prunable, ix.Leaves(), old.Leaves())
			if ix.Leaves() > 16*prunable {
				t.Errorf("%d leaves for %d prunable candidates, want at most 16 per candidate", ix.Leaves(), prunable)
			}
			for _, workers := range []int{2, 4} {
				par, err := index.Build(solver, ps.Space, cands, index.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ix.Snapshot(), par.Snapshot()) {
					t.Errorf("workers=%d: tree differs from the sequential build", workers)
				}
			}
			doc := saveIndexed(t, ps, ix)
			loaded, err := store.Load(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if again := saveIndexed(t, loaded, loaded.Index); !bytes.Equal(doc, again) {
				t.Errorf("Save∘Load∘Save is not the identity: %d vs %d bytes", len(doc), len(again))
			}
			oldSet, err := store.Load(bytes.NewReader(saveIndexed(t, ps, old)))
			if err != nil {
				t.Fatalf("4,096-budget document: %v", err)
			}
			if got := oldSet.Index.Snapshot().MaxLeaves; got != 4096 {
				t.Errorf("4,096-budget document loads with max_leaves %d", got)
			}
			points := randomPoints(t, solver, ps.Space, 2000, 31+cfg.Seed)
			for _, tree := range []struct {
				name string
				ix   *index.Index
			}{{"default", loaded.Index}, {"4096", oldSet.Index}} {
				leafCands := tree.ix.LeafCandidates(cands)
				for _, x := range points {
					leaf, _, ok := tree.ix.Locate(x)
					if !ok {
						t.Fatalf("%s tree: in-space point %v outside the index box", tree.name, x)
					}
					for p := range policyNames {
						if lin, idx := renderPolicy(cands, x, p), renderPolicy(leafCands[leaf], x, p); lin != idx {
							t.Fatalf("%s tree, %s at %v: linear %s, index %s", tree.name, policyNames[p], x, lin, idx)
						}
					}
				}
			}
		})
	}
}

// saveIndexed writes ps's plans with ix as the index stanza.
func saveIndexed(t *testing.T, ps *store.PlanSet, ix *index.Index) []byte {
	t.Helper()
	plans := make([]*core.PlanInfo, len(ps.Plans))
	for i, lp := range ps.Plans {
		plans[i] = &core.PlanInfo{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	var buf bytes.Buffer
	if err := store.SaveIndexed(&buf, ps.Metrics, ps.Space, plans, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
