package store

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/workload"
)

func optimizeSample(t *testing.T) (*core.Result, []string, *geometry.Polytope) {
	t.Helper()
	schema, err := workload.Generate(workload.Config{Tables: 4, Params: 1, Shape: workload.Chain, Seed: 8})
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
	return res, model.MetricNames(), model.Space()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	var buf bytes.Buffer
	if err := Save(&buf, metrics, space, res.Plans); err != nil {
		t.Fatalf("save: %v", err)
	}
	ps, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(ps.Plans) != len(res.Plans) {
		t.Fatalf("loaded %d plans, want %d", len(ps.Plans), len(res.Plans))
	}
	if len(ps.Metrics) != 2 {
		t.Fatalf("metrics = %v", ps.Metrics)
	}
	// Plan trees and cost functions survive the round trip.
	for i, lp := range ps.Plans {
		orig := res.Plans[i]
		if lp.Plan.String() != orig.Plan.String() {
			t.Errorf("plan %d tree %q != %q", i, lp.Plan, orig.Plan)
		}
		origCost := orig.Cost.(*pwl.Multi)
		for _, xv := range []float64{0.01, 0.3, 0.7, 0.99} {
			x := geometry.Vector{xv}
			a, _ := lp.Cost.Eval(x)
			b, _ := origCost.Eval(x)
			if !a.Equal(b, 1e-9) {
				t.Errorf("plan %d cost at %v: %v != %v", i, xv, a, b)
			}
			// Relevance regions agree pointwise (strict interior).
			if lp.RR.Contains(x, -1e-6) != orig.RR.Contains(x, -1e-6) {
				t.Errorf("plan %d RR membership differs at %v", i, xv)
			}
		}
	}
}

// TestLoadRejectsBadDocuments: each malformed document fails with an
// error naming its own defect, so a row cannot pass on some earlier
// check (version, missing stanza) it was not written to exercise.
func TestLoadRejectsBadDocuments(t *testing.T) {
	const opts = `"region_options":{"strategy":"bemporad","relevance_points":16,"eliminate_redundant_cutouts":true},`
	cases := map[string]struct{ doc, wantErr string }{
		"bad json":       {`{`, "decoding"},
		"wrong version":  {`{"version":99,"metrics":["t"],"space":{"dim":1},"plans":[]}`, "unsupported format version 99"},
		"no metrics":     {`{"version":3,"metrics":[],"space":{"dim":1},"plans":[]}`, "without metrics"},
		"zero dim space": {`{"version":3,"metrics":["t"],"space":{"dim":0},"plans":[]}`, "polytope with dimension 0"},
		"bad constraint": {`{"version":3,"metrics":["t"],"space":{"dim":2,"constraints":[{"w":[1],"b":0}]},"plans":[]}`, "constraint dimension 1, want 2"},
		"scan with kids": {`{"version":3,"metrics":["t"],"space":{"dim":1},` + opts + `"plans":[{"tree":{"op":"x","table":0,"left":{"op":"s","table":1}},"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]},"cutouts":[]}]}`, "scan node with children"},
		"metric count":   {`{"version":3,"metrics":["t","f"],"space":{"dim":1},` + opts + `"plans":[{"tree":{"op":"s","table":0},"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]},"cutouts":[]}]}`, "cost with 1 components, want 2"},
		"no options":     {`{"version":3,"metrics":["t"],"space":{"dim":1},"plans":[]}`, "without region options"},
	}
	for name, tc := range cases {
		_, err := Load(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

// TestLoadRejectsDimensionMismatches: documents whose piece or cutout
// polytopes are internally consistent but of the wrong dimension must
// be rejected with a descriptive error instead of panicking deep inside
// the geometry layer at selection time.
func TestLoadRejectsDimensionMismatches(t *testing.T) {
	// A valid 1-parameter document skeleton: one scan plan, one linear
	// cost piece, one cutout. %s slots: piece region, cutout list,
	// extra plan fields.
	const tmpl = `{"version":3,"metrics":["t"],"space":{"dim":1,"constraints":[{"w":[1],"b":1},{"w":[-1],"b":0}]},` +
		`"region_options":{"strategy":"bemporad","relevance_points":16,"eliminate_redundant_cutouts":true},` +
		`"plans":[{"tree":{"op":"s","table":0},"cost":{"components":[{"pieces":[{"region":%s,"w":[1],"b":0}]}]}%s}]}`
	good2D := `{"dim":2,"constraints":[{"w":[1,0],"b":1},{"w":[-1,0],"b":0}]}`
	good1D := `{"dim":1,"constraints":[{"w":[1],"b":1}]}`
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{
			name:    "piece region dim",
			doc:     fmt.Sprintf(tmpl, good2D, ""),
			wantErr: "piece region dimension 2, want space dimension 1",
		},
		{
			name:    "cutout dim",
			doc:     fmt.Sprintf(tmpl, good1D, `,"cutouts":[`+good2D+`]`),
			wantErr: "cutout: dimension 2, want space dimension 1",
		},
		{
			name:    "always-relevant with cutouts",
			doc:     fmt.Sprintf(tmpl, good1D, `,"always_relevant":true,"cutouts":[`+good1D+`]`),
			wantErr: "always-relevant",
		},
		{
			name:    "bad strategy name",
			doc:     strings.Replace(fmt.Sprintf(tmpl, good1D, ""), "bemporad", "quantum", 1),
			wantErr: "unknown emptiness strategy",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The skeleton itself must be valid.
			if tc.name == "piece region dim" {
				if _, err := Load(strings.NewReader(fmt.Sprintf(tmpl, good1D, ""))); err != nil {
					t.Fatalf("valid skeleton rejected: %v", err)
				}
			}
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("bad document accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadUsesSavedRegionOptions: regression test — Load must rebuild
// relevance regions with the options persisted at save time (the
// Section 6.2 refinements), not with the zero value.
func TestLoadUsesSavedRegionOptions(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	var buf bytes.Buffer
	if err := Save(&buf, metrics, space, res.Plans); err != nil {
		t.Fatal(err)
	}
	ps, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Plans[0].RR.Options()
	if want != region.DefaultOptions() {
		t.Fatalf("sample was not optimized with default region options: %+v", want)
	}
	for i, lp := range ps.Plans {
		if lp.RR == nil {
			continue
		}
		if got := lp.RR.Options(); got != want {
			t.Errorf("plan %d loaded with region options %+v, want the saved %+v", i, got, want)
		}
	}
}

// TestLoadRoundTripsNonDefaultRegionOptions: a plan set optimized with
// non-default refinements must come back with exactly those options.
func TestLoadRoundTripsNonDefaultRegionOptions(t *testing.T) {
	schema, err := workload.Generate(workload.Config{Tables: 3, Params: 1, Shape: workload.Chain, Seed: 5})
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
	opts.Region = region.Options{Strategy: region.StrategyCoverDiff, RelevancePoints: 3}
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
		t.Fatal(err)
	}
	ps, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, lp := range ps.Plans {
		if lp.RR == nil {
			continue
		}
		if got := lp.RR.Options(); got != opts.Region {
			t.Errorf("plan %d loaded with region options %+v, want %+v", i, got, opts.Region)
		}
	}
}

// TestRoundTripPreservesAlwaysRelevant: regression test — a plan saved
// with a nil relevance region (always relevant) must load with a nil
// region, keeping selection's no-containment fast path, while a plan
// with a real region must load with one.
func TestRoundTripPreservesAlwaysRelevant(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	if len(res.Plans) < 2 {
		t.Skip("need at least two plans")
	}
	infos := make([]*core.PlanInfo, len(res.Plans))
	for i, info := range res.Plans {
		copied := *info
		if i == 0 {
			copied.RR = nil // always relevant
		}
		infos[i] = &copied
	}
	var buf bytes.Buffer
	if err := Save(&buf, metrics, space, infos); err != nil {
		t.Fatal(err)
	}
	ps, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Plans[0].RR != nil {
		t.Error("nil relevance region became non-nil after round trip")
	}
	for i := 1; i < len(ps.Plans); i++ {
		if ps.Plans[i].RR == nil {
			t.Errorf("plan %d lost its relevance region", i)
		}
	}
}

// TestLoadRejectsVersion1And2Documents: documents older than version
// 3 are refused with an error naming the version and the remedy, even
// when otherwise well formed.
func TestLoadRejectsVersion1And2Documents(t *testing.T) {
	const v1 = `{"version":1,"metrics":["t"],"space":{"dim":1,"constraints":[{"w":[1],"b":1},{"w":[-1],"b":0}]},` +
		`"plans":[{"tree":{"op":"s","table":0},"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]}}]}`
	const v2 = `{"version":2,"metrics":["t"],"space":{"dim":1,"constraints":[{"w":[1],"b":1},{"w":[-1],"b":0}]},` +
		`"region_options":{"strategy":"bemporad","relevance_points":16,"eliminate_redundant_cutouts":true},` +
		`"plans":[{"tree":{"op":"s","table":0},"always_relevant":true,` +
		`"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]}}]}`
	for v, doc := range map[int]string{1: v1, 2: v2} {
		_, err := Load(strings.NewReader(doc))
		if err == nil {
			t.Errorf("version %d document accepted", v)
			continue
		}
		for _, want := range []string{fmt.Sprintf("format version %d", v), "re-preparing the template rewrites the document"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: error %q does not mention %q", v, err, want)
			}
		}
	}
}

// TestLoadWithoutIndexStanza: a version 3 document without an index
// stanza loads with a nil PlanSet.Index (callers rebuild one on load
// when they want it).
func TestLoadWithoutIndexStanza(t *testing.T) {
	const doc = `{"version":3,"metrics":["t"],"space":{"dim":1,"constraints":[{"w":[1],"b":1},{"w":[-1],"b":0}]},` +
		`"region_options":{"strategy":"bemporad","relevance_points":16,"eliminate_redundant_cutouts":true},` +
		`"plans":[{"tree":{"op":"s","table":0},"always_relevant":true,` +
		`"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]}}]}`
	ps, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Index != nil {
		t.Error("document without an index stanza loaded with an index")
	}
}

// TestLoadRejectsBadIndexStanza: malformed index stanzas (out-of-range
// candidate ids, non-preorder children, wrong box dimension) are
// rejected with descriptive errors instead of misrouting picks later.
func TestLoadRejectsBadIndexStanza(t *testing.T) {
	const tmpl = `{"version":3,"metrics":["t"],"space":{"dim":1,"constraints":[{"w":[1],"b":1},{"w":[-1],"b":0}]},` +
		`"region_options":{"strategy":"bemporad","relevance_points":16,"eliminate_redundant_cutouts":true},` +
		`"plans":[{"tree":{"op":"s","table":0},"always_relevant":true,` +
		`"cost":{"components":[{"pieces":[{"region":{"dim":1},"w":[1],"b":0}]}]}}],` +
		`"index":%s}`
	good := `{"leaf_target":4,"max_depth":16,"max_leaves":4096,"lo":[0],"hi":[1],"nodes":[{"cands":[0]}]}`
	if _, err := Load(strings.NewReader(fmt.Sprintf(tmpl, good))); err != nil {
		t.Fatalf("valid indexed skeleton rejected: %v", err)
	}
	cases := map[string]string{
		"candidate id out of range": `{"lo":[0],"hi":[1],"nodes":[{"cands":[5]}]}`,
		"box dimension":             `{"lo":[0,0],"hi":[1,1],"nodes":[{"cands":[0]}]}`,
		"inverted box":              `{"lo":[1],"hi":[0],"nodes":[{"cands":[0]}]}`,
		"no nodes":                  `{"lo":[0],"hi":[1],"nodes":[]}`,
		"non-preorder children":     `{"lo":[0],"hi":[1],"nodes":[{"split":0.5,"left":2,"right":1},{"cands":[0]},{"cands":[0]}]}`,
		"split dim out of range":    `{"lo":[0],"hi":[1],"nodes":[{"dim":3,"split":0.5,"left":1,"right":2},{"cands":[0]},{"cands":[0]}]}`,
		"unsorted candidate ids":    `{"lo":[0],"hi":[1],"nodes":[{"cands":[0,0]}]}`,
		"unreachable node":          `{"lo":[0],"hi":[1],"nodes":[{"cands":[0]},{"cands":[0]}]}`,
	}
	for name, ixDoc := range cases {
		if _, err := Load(strings.NewReader(fmt.Sprintf(tmpl, ixDoc))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSaveRejectsNonPWLCosts(t *testing.T) {
	space := geometry.Interval(0, 1)
	plans := []*core.PlanInfo{{Plan: nil, Cost: "not a pwl cost"}}
	var buf bytes.Buffer
	// Plan field is unused before the cost type check fails on a scan
	// node — construct a real node to be safe.
	schema := core.StaticSchema(1, []float64{0}, []float64{1})
	_ = schema
	model := &core.StaticModel{ParamSpace: space, Metrics: []string{"t"}, Plans: []core.Alternative{
		{Op: "s", Cost: pwl.NewMulti(pwl.Constant(space, 1))},
	}}
	res, err := core.OptimizeCtx(context.Background(), core.StaticSchema(1, []float64{0}, []float64{1}), model, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plans[0].Plan = res.Plans[0].Plan
	if err := Save(&buf, []string{"t"}, space, plans); err == nil {
		t.Error("non-PWL cost accepted")
	}
}

// TestRoundTripStability: saving a loaded plan set reproduces an
// equivalent document.
func TestRoundTripStability(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	var first bytes.Buffer
	if err := Save(&first, metrics, space, res.Plans); err != nil {
		t.Fatal(err)
	}
	ps, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Convert loaded plans back to PlanInfo for a second save.
	infos := make([]*core.PlanInfo, len(ps.Plans))
	for i, lp := range ps.Plans {
		infos[i] = &core.PlanInfo{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	var second bytes.Buffer
	if err := Save(&second, ps.Metrics, ps.Space, infos); err != nil {
		t.Fatal(err)
	}
	ps2, err := Load(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps2.Plans) != len(ps.Plans) {
		t.Fatalf("second load has %d plans, want %d", len(ps2.Plans), len(ps.Plans))
	}
	for i := range ps2.Plans {
		if ps2.Plans[i].Plan.String() != ps.Plans[i].Plan.String() {
			t.Errorf("plan %d differs after double round trip", i)
		}
	}
}
