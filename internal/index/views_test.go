package index_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// viewCases are the plan sets the leaf-view tests run on: every shape,
// one and two parameters, up to chain-2p/5t's 1,200+ distinct
// restrictions.
var viewCases = []workload.Config{
	{Tables: 3, Params: 2, Shape: workload.Chain, Seed: 1},
	{Tables: 3, Params: 2, Shape: workload.Star, Seed: 2},
	{Tables: 4, Params: 2, Shape: workload.Cycle, Seed: 4},
	{Tables: 4, Params: 2, Shape: workload.Clique, Seed: 2},
	{Tables: 5, Params: 2, Shape: workload.Chain, Seed: 3},
	{Tables: 9, Params: 1, Shape: workload.Star, Seed: 2},
}

func caseName(cfg workload.Config) string {
	return fmt.Sprintf("%s-%dp-%dt-s%d", cfg.Shape, cfg.Params, cfg.Tables, cfg.Seed)
}

// viewSet is one candidate set with its index.
type viewSet struct {
	name  string
	cands []selection.Candidate
	ix    *index.Index
}

// deepLeaves is the fixed leaf budget of the deep view trees: many
// neighbouring leaves with equal restrictions, so view sharing shows.
const deepLeaves = 4096

// viewSets indexes every view case twice: at the default options (the
// tree the serving layer builds) and at a fixed MaxLeaves of
// deepLeaves (name suffix "-deep").
func viewSets(t *testing.T) []viewSet {
	t.Helper()
	var sets []viewSet
	for _, cfg := range viewCases {
		ps, cands, solver := loadSet(t, cfg)
		for _, maxLeaves := range []int{0, deepLeaves} {
			ix, err := index.Build(solver, ps.Space, cands, index.Options{MaxLeaves: maxLeaves, Workers: buildWorkers(t)})
			if err != nil {
				t.Fatal(err)
			}
			name := caseName(cfg)
			if maxLeaves != 0 {
				name += "-deep"
			}
			sets = append(sets, viewSet{name, cands, ix})
		}
	}
	cands, solver, space := wideCutoutSet(t)
	ix, err := index.Build(solver, space, cands, index.Options{LeafTarget: 1})
	if err != nil {
		t.Fatal(err)
	}
	return append(sets, viewSet{"synthetic-70-constraint-cutouts", cands, ix})
}

// wideCutoutSet is a synthetic candidate set over the unit square whose
// cutouts are 70-gons (more constraints than a 64-bit mask holds) and
// whose costs have four pieces per metric, so leaves keep and drop
// constraints on both sides of position 64 and pieces too.
func wideCutoutSet(t *testing.T) ([]selection.Candidate, *geometry.Solver, *geometry.Polytope) {
	t.Helper()
	const sides = 70
	ctx := geometry.NewSolver(geometry.Config{})
	space := geometry.UnitBox(2)
	quadrant := func(x0, y0 float64) *geometry.Polytope {
		return geometry.Box(geometry.Vector{x0, y0}, geometry.Vector{x0 + 0.5, y0 + 0.5})
	}
	var cands []selection.Candidate
	for i := 0; i < 6; i++ {
		cx, cy := 0.15+0.14*float64(i), 0.8-0.11*float64(i)
		hs := make([]geometry.Halfspace, sides)
		for k := range hs {
			a := 2 * math.Pi * float64(k) / sides
			w := geometry.Vector{math.Cos(a), math.Sin(a)}
			hs[k] = geometry.Halfspace{W: w, B: 0.3 + w[0]*cx + w[1]*cy}
		}
		rr := region.New(ctx, space, region.Options{})
		rr.Subtract(ctx, geometry.NewPolytope(2, hs...))
		if got := len(rr.Cutouts()[0].Constraints()); got != sides {
			t.Fatalf("synthetic cutout has %d constraints, want %d", got, sides)
		}
		var comps []*pwl.Function
		for m := 0; m < 2; m++ {
			var pieces []pwl.Piece
			for q, o := range [][2]float64{{0, 0}, {0.5, 0}, {0, 0.5}, {0.5, 0.5}} {
				w := geometry.Vector{float64(i + q + m), float64(6 - i + q)}
				pieces = append(pieces, pwl.Piece{Region: quadrant(o[0], o[1]), W: w, B: float64(i)})
			}
			comps = append(comps, pwl.NewFunction(pieces...))
		}
		cands = append(cands, selection.Candidate{Cost: pwl.NewMulti(comps...), RR: rr})
	}
	return cands, ctx, space
}

// sameView reports how view differs from the per-leaf oracle
// restriction, or "" when they are equal: the same plan, the same
// relevance-region nil-ness and kept cutouts' constraint lists, and
// the same pieces per metric.
func sameView(view, oracle selection.Candidate) string {
	if view.Plan != oracle.Plan {
		return "plan differs"
	}
	if (view.RR == nil) != (oracle.RR == nil) {
		return fmt.Sprintf("region nil %v, oracle nil %v", view.RR == nil, oracle.RR == nil)
	}
	if view.RR != nil {
		vc, oc := view.RR.Cutouts(), oracle.RR.Cutouts()
		if len(vc) != len(oc) {
			return fmt.Sprintf("%d kept cutouts, oracle %d", len(vc), len(oc))
		}
		for j := range vc {
			if !reflect.DeepEqual(vc[j].Constraints(), oc[j].Constraints()) {
				return fmt.Sprintf("kept cutout %d: constraints differ", j)
			}
		}
	}
	if view.Cost.NumMetrics() != oracle.Cost.NumMetrics() {
		return "metric count differs"
	}
	for k := 0; k < view.Cost.NumMetrics(); k++ {
		if !reflect.DeepEqual(view.Cost.Component(k).Pieces(), oracle.Cost.Component(k).Pieces()) {
			return fmt.Sprintf("metric %d: pieces differ", k)
		}
	}
	return ""
}

// TestLeafViewsMatchPerLeafRestriction: every leaf's shared view
// equals the fresh per-leaf restriction the index used to build.
func TestLeafViewsMatchPerLeafRestriction(t *testing.T) {
	for _, s := range viewSets(t) {
		t.Run(s.name, func(t *testing.T) {
			views := s.ix.LeafCandidates(s.cands)
			oracle := s.ix.OracleLeafViews(s.cands)
			trimmed := 0
			for leaf := range oracle {
				if len(views[leaf]) != len(oracle[leaf]) {
					t.Fatalf("leaf %d: %d candidates, oracle %d", leaf, len(views[leaf]), len(oracle[leaf]))
				}
				for i := range oracle[leaf] {
					if diff := sameView(views[leaf][i], oracle[leaf][i]); diff != "" {
						t.Fatalf("leaf %d candidate %d: %s", leaf, i, diff)
					}
					if rr := oracle[leaf][i].RR; rr != nil {
						for _, c := range rr.Cutouts() {
							if n := len(c.Constraints()); n > 1 && n < 70 {
								trimmed++
							}
						}
					}
				}
			}
			if strings.HasPrefix(s.name, "synthetic") && trimmed == 0 {
				t.Error("no leaf trimmed a 70-gon cutout: the synthetic case tests nothing")
			}
		})
	}
}

// TestLeafViewsShared: views are shared exactly when restrictions are
// equal — one *region.Region per distinct (candidate, kept cutouts and
// constraints) and one *pwl.Multi per distinct (candidate, kept pieces
// per metric), counted against the per-leaf oracle's restrictions. The
// sharing ratio is asserted on the deep tree of the first case: the
// default tree is shallow, with few neighbouring leaves left to share.
func TestLeafViewsShared(t *testing.T) {
	for _, s := range viewSets(t) {
		t.Run(s.name, func(t *testing.T) {
			views := s.ix.LeafCandidates(s.cands)
			oracle := s.ix.OracleLeafViews(s.cands)
			rrKey := map[*region.Region]string{}
			rrPtr := map[string]*region.Region{}
			costKey := map[*pwl.Multi]string{}
			costPtr := map[string]*pwl.Multi{}
			distinct := map[[3]any]bool{}
			total := 0
			snap := s.ix.Snapshot()
			for leaf := range oracle {
				ids := snap.Nodes[leaf].Cands
				for i, o := range oracle[leaf] {
					v := views[leaf][i]
					total++
					distinct[[3]any{ids[i], v.RR, v.Cost}] = true
					if v.RR != nil {
						checkShared(t, rrKey, rrPtr, v.RR, fmt.Sprint(ids[i], regionRestriction(o.RR)))
					}
					checkShared(t, costKey, costPtr, v.Cost, fmt.Sprint(ids[i], costRestriction(o.Cost)))
				}
			}
			t.Logf("%d leaf candidates, %d distinct views (%d region, %d cost)", total, len(distinct), len(rrPtr), len(costPtr))
			if s.name == caseName(viewCases[0])+"-deep" && len(distinct)*10 > total {
				t.Errorf("%d distinct views for %d leaf candidates, want at most a tenth", len(distinct), total)
			}
		})
	}
}

// checkShared records that view p stands for restriction key and fails
// when a pointer stands for two restrictions or a restriction gets two
// pointers.
func checkShared[P comparable](t *testing.T, keyOf map[P]string, ptrOf map[string]P, p P, key string) {
	t.Helper()
	if k, ok := keyOf[p]; ok && k != key {
		t.Fatalf("one view shared by restrictions %q and %q", k, key)
	}
	if q, ok := ptrOf[key]; ok && q != p {
		t.Fatalf("restriction %q built twice", key)
	}
	keyOf[p], ptrOf[key] = key, p
}

// regionRestriction names the oracle's kept cutouts by the identity of
// their constraints (trimmed cutouts share the original halfspaces'
// weight arrays).
func regionRestriction(rr *region.Region) string {
	var b strings.Builder
	for _, c := range rr.Cutouts() {
		b.WriteString("|")
		for _, h := range c.Constraints() {
			fmt.Fprintf(&b, "%p:%v,", h.W, h.B)
		}
	}
	return b.String()
}

// costRestriction names the oracle's kept pieces per metric by the
// identity of their regions.
func costRestriction(m *pwl.Multi) string {
	var b strings.Builder
	for k := 0; k < m.NumMetrics(); k++ {
		b.WriteString("|")
		for _, p := range m.Component(k).Pieces() {
			fmt.Fprintf(&b, "%p,", p.Region)
		}
	}
	return b.String()
}

// TestBuildMatchesFullRescan: a cell that inherits only its parent's
// overlapping cutouts builds the same tree as one that rescans every
// cutout of every kept candidate, sequentially and in parallel.
func TestBuildMatchesFullRescan(t *testing.T) {
	for _, cfg := range viewCases {
		ps, cands, solver := loadSet(t, cfg)
		for _, workers := range []int{1, 4} {
			ix, err := index.Build(solver, ps.Space, cands, index.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ix.Snapshot(), index.RescanSnapshot(ix, cands)) {
				t.Errorf("%s workers=%d: tree differs from the full-rescan build", caseName(cfg), workers)
			}
		}
	}
}

// benchSet is star-2p/3t/s2, the index benchmarks' plan set.
func benchSet(b *testing.B) ([]selection.Candidate, *geometry.Solver, *geometry.Polytope) {
	ps, cands, solver := loadSet(b, workload.Config{Tables: 3, Params: 2, Shape: workload.Star, Seed: 2})
	return cands, solver, ps.Space
}

func BenchmarkLeafCandidates(b *testing.B) {
	cands, solver, space := benchSet(b)
	ix, err := index.Build(solver, space, cands, index.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		ix.LeafCandidates(cands)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	cands, solver, space := benchSet(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := index.Build(solver, space, cands, index.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
