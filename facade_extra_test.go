package mpq_test

import (
	"bytes"
	"testing"

	"mpq"
)

// TestFacadePersistAndSelect exercises the full deployment workflow
// through the public API: optimize, save, load, select.
func TestFacadePersistAndSelect(t *testing.T) {
	schema, err := mpq.GenerateWorkload(mpq.WorkloadConfig{
		Tables: 3, Params: 1, Shape: mpq.Chain, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := mpq.NewSolver(mpq.SolverConfig{})
	model, err := mpq.NewCloudModel(schema, mpq.DefaultCloudConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts := mpq.DefaultOptions()
	opts.Context = ctx
	res, err := mpq.Optimize(schema, model, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := mpq.SavePlanSet(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
		t.Fatal(err)
	}
	ps, err := mpq.LoadPlanSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cands := mpq.SelectionCandidates(ps)
	if len(cands) != len(res.Plans) {
		t.Fatalf("candidates = %d, want %d", len(cands), len(res.Plans))
	}
	x := mpq.Vector{0.3}
	front := mpq.SelectFrontier(cands, x)
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	choice, err := mpq.SelectWeightedSum(cands, x, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Plan == nil {
		t.Fatal("no plan selected")
	}
	// The weighted-sum winner must be on the frontier.
	found := false
	for _, c := range front {
		if c.Plan.String() == choice.Plan.String() {
			found = true
		}
	}
	if !found {
		t.Error("weighted-sum choice not on the frontier")
	}
	// Budget selection with a generous bound succeeds.
	if _, err := mpq.SelectMinimizeSubjectTo(cands, x, 1, []mpq.Bound{{Metric: 0, Max: 1e9}}); err != nil {
		t.Errorf("budgeted selection failed: %v", err)
	}
}

// TestFacadeDiagrams builds both diagram kinds through the public API.
func TestFacadeDiagrams(t *testing.T) {
	space := mpq.Interval(0, 1)
	plans := mpq.DiagramPlans(
		[]string{"a", "b"},
		[]*mpq.PWLMulti{
			mpq.MultiCost(mpq.LinearCost(space, mpq.Vector{1}, 0), mpq.ConstantCost(space, 2)),
			mpq.MultiCost(mpq.LinearCost(space, mpq.Vector{-1}, 1), mpq.ConstantCost(space, 1)),
		},
	)
	front, err := mpq.FrontSizeDiagram(plans, mpq.Vector{0}, mpq.Vector{1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Cells) != 10 {
		t.Errorf("cells = %d", len(front.Cells))
	}
	win, err := mpq.WinnerDiagram(plans, mpq.Vector{0}, mpq.Vector{1}, 10, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if win.Distinct() != 2 {
		t.Errorf("distinct winners = %d, want 2", win.Distinct())
	}
	var buf bytes.Buffer
	win.RenderASCII(&buf)
	if buf.Len() == 0 {
		t.Error("empty diagram rendering")
	}
}
