package pwl_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// oracleAlgebra is the PWL algebra with Dom replaced by the per-piece
// construction, so the optimizer never sees a whole-space Dom. Its Eval
// gives every cost its own incomparable vector (id, −id), so the
// prune's sample screen never picks a candidate either: an oracle run
// is the plain ordered prune loop with the per-piece Dom. Eval is not
// used anywhere else in an optimizer run.
type oracleAlgebra struct {
	*core.PWLAlgebra
	ids *costIDs
}

func newOracleAlgebra(ctx *geometry.Context, metrics int) oracleAlgebra {
	return oracleAlgebra{core.NewPWLAlgebra(ctx, metrics), &costIDs{m: map[core.Cost]float64{}}}
}

func (a oracleAlgebra) Dom(c1, c2 core.Cost) []*geometry.Polytope {
	return pwl.DomPieces(a.Ctx, c1.(*pwl.Multi), c2.(*pwl.Multi))
}

func (a oracleAlgebra) Eval(c core.Cost, x geometry.Vector) geometry.Vector {
	id := a.ids.of(c)
	return geometry.Vector{id, -id}
}

func (a oracleAlgebra) Fork(s *geometry.Solver) core.Algebra {
	return oracleAlgebra{a.PWLAlgebra.Fork(s).(*core.PWLAlgebra), a.ids}
}

// costIDs numbers costs in first-seen order, safely across workers.
type costIDs struct {
	mu sync.Mutex
	m  map[core.Cost]float64
}

func (c *costIDs) of(cost core.Cost) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.m[cost]
	if !ok {
		id = float64(len(c.m) + 1)
		c.m[cost] = id
	}
	return id
}

// recordingAlgebra is the PWL algebra that remembers the arguments of
// every Dom call, to replay real cost pairs of an optimizer run.
type recordingAlgebra struct {
	*core.PWLAlgebra
	pairs [][2]*pwl.Multi
}

func (a *recordingAlgebra) Dom(c1, c2 core.Cost) []*geometry.Polytope {
	a.pairs = append(a.pairs, [2]*pwl.Multi{c1.(*pwl.Multi), c2.(*pwl.Multi)})
	return a.PWLAlgebra.Dom(c1, c2)
}

type template struct {
	shape          workload.Shape
	params, tables int
	seed           int64
}

func (tc template) String() string {
	return fmt.Sprintf("%s-%dp-%dt-s%d", tc.shape, tc.params, tc.tables, tc.seed)
}

// generate builds the schema and cost model of tc.
func generate(t *testing.T, tc template, ctx *geometry.Context) (*catalog.Schema, *cloud.Model) {
	t.Helper()
	schema, err := workload.Generate(workload.Config{Tables: tc.tables, Params: tc.params, Shape: tc.shape, Seed: tc.seed})
	if err != nil {
		t.Fatal(err)
	}
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	return schema, model
}

// TestDomWholeSpaceMatchesPerPiece replays the Dom calls of real
// optimizer runs: whenever Dom returns the cover alone, the per-piece
// construction must cover the domain too, and the shortcut must fire
// on at least 90% of the pairs whose per-piece Dom covers the domain.
func TestDomWholeSpaceMatchesPerPiece(t *testing.T) {
	const maxPairs = 1500
	for _, tc := range []template{
		{workload.Chain, 1, 9, 1},
		{workload.Star, 1, 7, 2},
		{workload.Clique, 1, 6, 1},
		{workload.Chain, 2, 4, 2},
		{workload.Clique, 2, 4, 2},
		{workload.Cycle, 2, 4, 4},
	} {
		t.Run(tc.String(), func(t *testing.T) {
			ctx := geometry.NewContext()
			schema, model := generate(t, tc, ctx)
			rec := &recordingAlgebra{PWLAlgebra: core.NewPWLAlgebra(ctx, len(model.MetricNames()))}
			opts := core.DefaultOptions()
			opts.Context = ctx
			opts.Algebra = rec
			opts.Workers = 1 // the embedded Fork would not record
			if _, err := core.Optimize(schema, model, opts); err != nil {
				t.Fatal(err)
			}
			stride := len(rec.pairs)/maxPairs + 1
			space := model.Space()
			covering, fired := 0, 0
			for i := 0; i < len(rec.pairs); i += stride {
				c1, c2 := rec.pairs[i][0], rec.pairs[i][1]
				fast := pwl.Dom(geometry.NewContext(), c1, c2)
				check := geometry.NewContext()
				covers := check.UnionCovers(space, pwl.DomPieces(check, c1, c2))
				whole := len(fast) == 1 && fast[0] == space
				if whole && !covers {
					t.Fatalf("pair %d: Dom returned the whole space, the per-piece construction leaves part uncovered", i)
				}
				if covers {
					covering++
					if whole {
						fired++
					}
				}
			}
			if covering == 0 {
				t.Fatal("no replayed pair covers the space")
			}
			if fired*10 < covering*9 {
				t.Errorf("whole-space shortcut fired on %d of %d covering pairs, want at least 90%%", fired, covering)
			}
			t.Logf("%d calls replayed with stride %d: %d cover the space, shortcut fired on %d", len(rec.pairs), stride, covering, fired)
		})
	}
}

// savedPlanSet optimizes tc and returns its store document; oracle
// selects the per-piece Dom.
func savedPlanSet(t *testing.T, tc template, workers int, oracle bool) []byte {
	t.Helper()
	ctx := geometry.NewContext()
	schema, model := generate(t, tc, ctx)
	opts := core.DefaultOptions()
	opts.Context = ctx
	opts.Workers = workers
	if oracle {
		opts.Algebra = newOracleAlgebra(ctx, len(model.MetricNames()))
	}
	res, err := core.Optimize(schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPruneMatchesPerPieceOracle: the whole-space shortcut of Dom and
// the prune's candidate-first trial only ever drop plans the plain
// per-piece prune drops too, so the saved plan sets are byte-identical
// to those of the oracle run (the plain loop with the per-piece Dom),
// at one and at two workers.
func TestPruneMatchesPerPieceOracle(t *testing.T) {
	for _, tc := range []template{
		{workload.Chain, 2, 4, 2},
		{workload.Clique, 2, 3, 2},
		{workload.Star, 1, 6, 1},
		{workload.Cycle, 2, 3, 2},
		// A newcomer here passes the sample screen against an old plan
		// that does not dominate it on the whole space.
		{workload.Clique, 1, 7, 2},
	} {
		t.Run(tc.String(), func(t *testing.T) {
			want := savedPlanSet(t, tc, 1, true)
			for _, workers := range []int{1, 2} {
				if got := savedPlanSet(t, tc, workers, false); !bytes.Equal(got, want) {
					t.Errorf("workers %d: document differs from the per-piece oracle (%d vs %d bytes)", workers, len(got), len(want))
				}
				if got := savedPlanSet(t, tc, workers, true); !bytes.Equal(got, want) {
					t.Errorf("workers %d: oracle document differs from one worker's", workers)
				}
			}
		})
	}
}
