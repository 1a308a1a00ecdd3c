package cloud

import (
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/geometry"
	"mpq/internal/workload"
)

func testModel(t *testing.T, tables, params int, seed int64) (*Model, *catalog.Schema, *geometry.Solver) {
	t.Helper()
	schema, err := workload.Generate(workload.Config{Tables: tables, Params: params, Shape: workload.Chain, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(schema, DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	return m, schema, ctx
}

func TestScanCostsAlternatives(t *testing.T) {
	m, schema, _ := testModel(t, 3, 1, 1)
	// Table 0 has an indexed predicate: scan + index seek.
	scans := m.ScanCosts(0)
	if len(scans) != 2 {
		t.Fatalf("table 0 has %d scan alternatives, want 2", len(scans))
	}
	// Tables without predicates: full scan only.
	if got := len(m.ScanCosts(1)); got != 1 {
		t.Fatalf("table 1 has %d scan alternatives, want 1", got)
	}
	// Full scan time is independent of selectivity; index seek grows
	// with it.
	var scan, idx *ScanCost
	for i := range scans {
		switch scans[i].Op {
		case OpTableScan:
			scan = &scans[i]
		case OpIndexSeek:
			idx = &scans[i]
		}
	}
	if scan == nil || idx == nil {
		t.Fatal("missing scan or index alternative")
	}
	low, _ := scan.Cost.Eval(geometry.Vector{0.01})
	high, _ := scan.Cost.Eval(geometry.Vector{0.9})
	if low[MetricTime] != high[MetricTime] {
		t.Error("full scan time depends on selectivity")
	}
	idxLow, _ := idx.Cost.Eval(geometry.Vector{0.01})
	idxHigh, _ := idx.Cost.Eval(geometry.Vector{0.9})
	if idxLow[MetricTime] >= idxHigh[MetricTime] {
		t.Error("index seek time not increasing in selectivity")
	}
	_ = schema
}

// TestIndexScanCrossover: the index seek must beat the full scan for
// selective predicates and lose for unselective ones — the tradeoff the
// paper's Section 7 highlights ("plans must often be kept for both
// cases").
func TestIndexScanCrossover(t *testing.T) {
	m, _, _ := testModel(t, 3, 1, 1)
	scans := m.ScanCosts(0)
	var scan, idx *ScanCost
	for i := range scans {
		switch scans[i].Op {
		case OpTableScan:
			scan = &scans[i]
		case OpIndexSeek:
			idx = &scans[i]
		}
	}
	sLow, _ := scan.Cost.Eval(geometry.Vector{0.001})
	iLow, _ := idx.Cost.Eval(geometry.Vector{0.001})
	if iLow[MetricTime] >= sLow[MetricTime] {
		t.Errorf("index (%v) not faster than scan (%v) at selectivity 0.001",
			iLow[MetricTime], sLow[MetricTime])
	}
	sHigh, _ := scan.Cost.Eval(geometry.Vector{1})
	iHigh, _ := idx.Cost.Eval(geometry.Vector{1})
	if iHigh[MetricTime] <= sHigh[MetricTime] {
		t.Errorf("index (%v) not slower than scan (%v) at selectivity 1",
			iHigh[MetricTime], sHigh[MetricTime])
	}
}

// TestParallelJoinTradeoff verifies the central Scenario-1 economics on
// a join step: the parallel join always costs more money (fees
// proportional to total work including shuffle), and for large inputs it
// is faster than the single-node join (Figure 7 / Example 3).
func TestParallelJoinTradeoff(t *testing.T) {
	// A large parameterized build side against a small probe side puts
	// the parallel crossover inside the selectivity domain.
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 2e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 1e5, TupleBytes: 100},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 1e-6}},
		NumParams: 1,
	}
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(schema, DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	if len(joins) != 2 {
		t.Fatalf("got %d join alternatives, want 2 (single-node + parallel)", len(joins))
	}
	single, parallel := joins[0], joins[1]
	if single.Op != OpHashJoin {
		t.Fatalf("first join is %q, want %q", single.Op, OpHashJoin)
	}
	for _, sel := range []float64{0.01, 0.25, 0.5, 1} {
		x := geometry.Vector{sel}
		sc, _ := single.Cost.Eval(x)
		pc, _ := parallel.Cost.Eval(x)
		if pc[MetricFees] <= sc[MetricFees] {
			t.Errorf("sel %v: parallel fees %v not higher than single-node %v",
				sel, pc[MetricFees], sc[MetricFees])
		}
	}
	// Small input: single-node faster. Large input: parallel faster.
	sc, _ := single.Cost.Eval(geometry.Vector{0.001})
	pc, _ := parallel.Cost.Eval(geometry.Vector{0.001})
	if sc[MetricTime] >= pc[MetricTime] {
		t.Errorf("small input: single %v not faster than parallel %v", sc[MetricTime], pc[MetricTime])
	}
	sc, _ = single.Cost.Eval(geometry.Vector{1})
	pc, _ = parallel.Cost.Eval(geometry.Vector{1})
	if pc[MetricTime] >= sc[MetricTime] {
		t.Errorf("large input: parallel %v not faster than single %v", pc[MetricTime], sc[MetricTime])
	}
}

func TestCostsPositiveEverywhere(t *testing.T) {
	m, schema, _ := testModel(t, 4, 2, 5)
	lo, hi := schema.ParameterBounds()
	pts := geometry.SamplePointsInBox(lo, hi, 4, 32)
	check := func(op string, c interface {
		Eval(geometry.Vector) (geometry.Vector, bool)
	}) {
		for _, x := range pts {
			v, _ := c.Eval(x)
			for mIdx, val := range v {
				if val <= 0 {
					t.Errorf("%s: non-positive %s cost %v at %v", op, m.MetricNames()[mIdx], val, x)
				}
			}
		}
	}
	for i := range schema.Tables {
		for _, s := range m.ScanCosts(catalog.TableID(i)) {
			check(s.Op, s.Cost)
		}
	}
	for _, split := range [][2]catalog.TableSet{
		{catalog.SetOf(0), catalog.SetOf(1)},
		{catalog.SetOf(0, 1), catalog.SetOf(2)},
		{catalog.SetOf(2, 3), catalog.SetOf(0, 1)},
	} {
		for _, j := range m.JoinCosts(split[0], split[1]) {
			check(j.Op, j.Cost)
		}
	}
}

// TestLinearClosuresExact: with one parameter and no memory spill inside
// the domain, the hash-join step cost is linear in the selectivity and
// must be represented by a single exact piece.
func TestLinearClosuresExact(t *testing.T) {
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 10000, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 10000, TupleBytes: 100},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 1e-4}},
		NumParams: 1,
	}
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(schema, DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	for _, j := range joins {
		if n := j.Cost.Component(MetricTime).NumPieces(); n != 1 {
			t.Errorf("%s: time has %d pieces, want 1 (linear closure)", j.Op, n)
		}
	}
	// Verify against the closed form for the single-node join:
	// (|L| + |R|) * CPUTupleSec with |L| = 10000*x filtered and
	// |R| = 10000.
	cfg := m.Config()
	single := joins[0]
	for _, sel := range []float64{0.1, 0.5, 1} {
		x := geometry.Vector{sel}
		v, _ := single.Cost.Eval(x)
		l := 10000 * sel
		r := 10000.0
		want := (l + r) * cfg.CPUTupleSec
		if d := v[MetricTime] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("sel %v: single-node time %v, want %v", sel, v[MetricTime], want)
		}
	}
}

// TestSpillCreatesPieces: when the build side crosses the work-memory
// boundary inside the parameter domain, the time cost must be genuinely
// piecewise (more than one piece).
func TestSpillCreatesPieces(t *testing.T) {
	// Build side: 1e6 tuples * 100 bytes * x crosses 32 MB at x = 0.32.
	schema := &catalog.Schema{
		Tables: []catalog.Table{
			{Name: "T1", Card: 1e6, TupleBytes: 100, Pred: &catalog.Predicate{Column: "a", ParamIndex: 0}, HasIndex: true},
			{Name: "T2", Card: 1e5, TupleBytes: 100},
		},
		Edges:     []catalog.JoinEdge{{A: 0, B: 1, Sel: 1e-5}},
		NumParams: 1,
	}
	ctx := geometry.NewSolver(geometry.Config{})
	m, err := NewModel(schema, DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	joins := m.JoinCosts(catalog.SetOf(0), catalog.SetOf(1))
	single := joins[0]
	if n := single.Cost.Component(MetricTime).NumPieces(); n < 2 {
		t.Errorf("spill crossing should produce multiple pieces, got %d", n)
	}
	// Below the boundary no spill cost; above it the extra I/O pass
	// makes the true cost strictly larger than the no-spill line.
	cfg := m.Config()
	noSpill := func(sel float64) float64 {
		l := 1e6 * sel
		r := 1e5
		return (l + r) * cfg.CPUTupleSec
	}
	v, _ := single.Cost.Eval(geometry.Vector{0.9})
	if v[MetricTime] <= noSpill(0.9)+1e-9 {
		t.Errorf("spilled cost %v not above no-spill line %v", v[MetricTime], noSpill(0.9))
	}
}

func TestNewModelRequiresParams(t *testing.T) {
	schema := &catalog.Schema{
		Tables:    []catalog.Table{{Name: "T1", Card: 10, TupleBytes: 10}},
		NumParams: 0,
	}
	if _, err := NewModel(schema, DefaultConfig(), geometry.NewSolver(geometry.Config{})); err == nil {
		t.Error("model accepted schema without parameters")
	}
}

func TestMetricNamesAndModes(t *testing.T) {
	m, _, _ := testModel(t, 2, 1, 1)
	names := m.MetricNames()
	if len(names) != 2 || names[MetricTime] != "time" || names[MetricFees] != "fees" {
		t.Errorf("metric names = %v", names)
	}
	if len(m.AccumModes()) != 2 {
		t.Errorf("accum modes = %v", m.AccumModes())
	}
}
