package store

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// TestRoundTripProperty is the store's round-trip property test over
// chain, star and clique workloads:
//
//  1. Save→Load→Save produces byte-identical documents (the format is
//     a fixed point of the round trip);
//  2. Load(Save(result)) preserves the plan count, the plan trees, the
//     cost vectors at sampled parameter points, and the nil-ness of
//     every relevance region.
func TestRoundTripProperty(t *testing.T) {
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique}
	for _, shape := range shapes {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("%v/seed=%d", shape, seed), func(t *testing.T) {
				schema, err := workload.Generate(workload.Config{
					Tables: 4, Params: 1, Shape: shape, Seed: seed,
				})
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
				res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
				if err != nil {
					t.Fatal(err)
				}
				// Mix in an always-relevant plan so nil-ness is part of
				// the property, not just the optimizer's usual output.
				infos := make([]*core.PlanInfo, len(res.Plans))
				for i, info := range res.Plans {
					copied := *info
					if i == 0 {
						copied.RR = nil
					}
					infos[i] = &copied
				}
				checkRoundTrip(t, model.MetricNames(), model.Space(), infos)
			})
		}
	}
}

func checkRoundTrip(t *testing.T, metrics []string, space *geometry.Polytope, infos []*core.PlanInfo) {
	t.Helper()
	var first bytes.Buffer
	if err := Save(&first, metrics, space, infos); err != nil {
		t.Fatalf("first save: %v", err)
	}
	ps, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	// Property 2: the loaded set preserves count, trees, sampled cost
	// values and region nil-ness.
	if len(ps.Plans) != len(infos) {
		t.Fatalf("loaded %d plans, want %d", len(ps.Plans), len(infos))
	}
	samples := samplePoints(space, 5)
	for i, lp := range ps.Plans {
		orig := infos[i]
		if lp.Plan.String() != orig.Plan.String() {
			t.Errorf("plan %d tree %q != %q", i, lp.Plan, orig.Plan)
		}
		if (lp.RR == nil) != (orig.RR == nil) {
			t.Errorf("plan %d region nil-ness changed: loaded nil=%v, saved nil=%v",
				i, lp.RR == nil, orig.RR == nil)
		}
		origCost := orig.Cost.(*pwl.Multi)
		for _, x := range samples {
			a, okA := lp.Cost.Eval(x)
			b, okB := origCost.Eval(x)
			if okA != okB || (okA && !a.Equal(b, 1e-9)) {
				t.Errorf("plan %d cost at %v: %v (ok=%v) != %v (ok=%v)", i, x, a, okA, b, okB)
			}
		}
	}

	// Property 1: saving the loaded set reproduces the exact document.
	loaded := make([]*core.PlanInfo, len(ps.Plans))
	for i, lp := range ps.Plans {
		loaded[i] = &core.PlanInfo{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	var second bytes.Buffer
	if err := Save(&second, ps.Metrics, ps.Space, loaded); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("Save∘Load is not the identity: document sizes %d vs %d",
			first.Len(), second.Len())
	}
}

// TestRoundTripPropertyIndexed is the v3 round-trip property: a
// document saved with a pick-index stanza loads the index back and
// saving the loaded set with its loaded index reproduces the exact
// bytes (Save∘Load is the identity for indexed documents too).
func TestRoundTripPropertyIndexed(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Clique} {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			schema, err := workload.Generate(workload.Config{
				Tables: 4, Params: 2, Shape: shape, Seed: 6,
			})
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
			res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
			if err != nil {
				t.Fatal(err)
			}
			cands := make([]selection.Candidate, len(res.Plans))
			for i, info := range res.Plans {
				cands[i] = selection.Candidate{Plan: info.Plan, Cost: info.Cost.(*pwl.Multi), RR: info.RR}
			}
			ix, err := index.Build(ctx, model.Space(), cands, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := SaveIndexed(&first, model.MetricNames(), model.Space(), res.Plans, ix); err != nil {
				t.Fatalf("first save: %v", err)
			}
			ps, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if ps.Index == nil {
				t.Fatal("indexed document loaded without an index")
			}
			if ps.Index.Leaves() != ix.Leaves() || ps.Index.LeafCandidateTotal() != ix.LeafCandidateTotal() ||
				ps.Index.MaxDepth() != ix.MaxDepth() {
				t.Errorf("loaded index shape (leaves=%d cands=%d depth=%d) != built (leaves=%d cands=%d depth=%d)",
					ps.Index.Leaves(), ps.Index.LeafCandidateTotal(), ps.Index.MaxDepth(),
					ix.Leaves(), ix.LeafCandidateTotal(), ix.MaxDepth())
			}
			loaded := make([]*core.PlanInfo, len(ps.Plans))
			for i, lp := range ps.Plans {
				loaded[i] = &core.PlanInfo{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
			}
			var second bytes.Buffer
			if err := SaveIndexed(&second, ps.Metrics, ps.Space, loaded, ps.Index); err != nil {
				t.Fatalf("second save: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("SaveIndexed∘Load is not the identity: document sizes %d vs %d",
					first.Len(), second.Len())
			}
		})
	}
}

// samplePoints returns a deterministic grid of points inside the
// parameter-space box.
func samplePoints(space *geometry.Polytope, n int) []geometry.Vector {
	ctx := geometry.NewSolver(geometry.Config{})
	lo, hi, ok := ctx.BoundingBox(space)
	if !ok {
		return nil
	}
	return geometry.SamplePointsInBox(lo, hi, n, n)
}
