// Package cloud implements the Cloud cost model of the paper's
// experimental evaluation (Section 7): query processing on a simulated
// cluster of EC2-like nodes with two cost metrics, execution time and
// monetary fees. A parallel hash join shuffles its inputs across the
// network — parallelization increases the total amount of work (and
// hence fees, which are proportional to node-seconds) while decreasing
// execution time for sufficiently large inputs; index seeks beat full
// scans only for selective predicates. Both tradeoffs depend on the
// parameterized predicate selectivities, producing the Pareto structure
// illustrated by Figures 1 and 7 of the paper.
package cloud

import (
	"fmt"
	"math"

	"mpq/internal/catalog"
	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// Config describes the simulated cluster and pricing. The defaults model
// an EC2 "general purpose medium" style node (the paper's setup): a few
// GB of memory, commodity sequential I/O, and per-node-second pricing
// derived from an hourly rate.
type Config struct {
	// NodeMemBytes is the node main-memory size (EC2 m3.medium: 3.75 GB).
	NodeMemBytes float64
	// WorkMemBytes is the per-operator hash work memory; a hash join
	// whose build side exceeds it pays an extra partitioning pass
	// (Grace hash join), introducing a piecewise-linear kink.
	WorkMemBytes float64
	// ScanBytesPerSec is the sequential scan rate.
	ScanBytesPerSec float64
	// CPUTupleSec is the CPU cost per tuple for hash build/probe.
	CPUTupleSec float64
	// IndexLookupSec is the cost per matching tuple of an index seek
	// (random I/O dominated).
	IndexLookupSec float64
	// NetworkBytesPerSec is the per-node network bandwidth used when
	// shuffling inputs for a parallel join.
	NetworkBytesPerSec float64
	// ParallelStartupSec is the fixed coordination overhead of starting
	// a parallel join.
	ParallelStartupSec float64
	// PricePerNodeSec is the monetary price of one node-second (EC2
	// hourly rate / 3600).
	PricePerNodeSec float64
	// ParallelDegrees lists the available parallel join widths. The
	// paper's setup has one parallel hash join next to the single-node
	// hash join.
	ParallelDegrees []int
	// ApproxCells is the grid resolution per parameter dimension for
	// the PWL approximation of nonlinear cost terms.
	ApproxCells int
	// EnableSortMerge adds a single-node sort-merge join alternative
	// (extension beyond the paper's two join operators).
	EnableSortMerge bool
	// EnableBroadcast adds a broadcast hash join per parallel degree:
	// the build side is replicated to all nodes, the probe side stays
	// partitioned — cheaper than a full shuffle when the build side is
	// small (extension).
	EnableBroadcast bool
	// SortCPUTupleSec is the per-tuple-per-comparison cost of sorting
	// (multiplied by log2 of the input size).
	SortCPUTupleSec float64
}

// DefaultConfig returns the cluster model used by the experiments.
func DefaultConfig() Config {
	return Config{
		NodeMemBytes:       3.75e9,
		WorkMemBytes:       32e6,
		ScanBytesPerSec:    1.5e8,
		CPUTupleSec:        1e-6,
		IndexLookupSec:     5e-5,
		NetworkBytesPerSec: 1.25e8,
		ParallelStartupSec: 0.5,
		PricePerNodeSec:    0.087 / 3600,
		ParallelDegrees:    []int{8},
		ApproxCells:        0, // auto: 4 cells for one parameter, 2 for more
		SortCPUTupleSec:    5e-8,
	}
}

// Metric indices of the model.
const (
	MetricTime = 0
	MetricFees = 1
)

// Model derives multi-objective PWL cost functions (time, fees) for scan
// and join operator applications from catalog statistics. All produced
// functions are built against one shared parameter-space polytope and
// one shared approximation grid, so the combination and dominance
// operators of the pwl package can use their partition-aligned fast
// paths.
type Model struct {
	cfg    Config
	schema *catalog.Schema
	ctx    *geometry.Solver
	space  *geometry.Polytope
	lo, hi geometry.Vector
	grid   *pwl.Grid
}

// NewModel builds a cost model for the schema. The schema must have at
// least one parameter (the MPQ setting). An ApproxCells of zero selects
// a resolution automatically: 4 cells for one parameter, 2 for more
// (piece counts grow as cells^d * d!).
func NewModel(schema *catalog.Schema, cfg Config, ctx *geometry.Solver) (*Model, error) {
	if schema.NumParams < 1 {
		return nil, fmt.Errorf("cloud: schema must have at least one parameter")
	}
	if cfg.ApproxCells < 1 {
		if schema.NumParams == 1 {
			cfg.ApproxCells = 4
		} else {
			cfg.ApproxCells = 2
		}
	}
	if len(cfg.ParallelDegrees) == 0 {
		cfg.ParallelDegrees = []int{8}
	}
	lo, hi := schema.ParameterBounds()
	return &Model{
		cfg:    cfg,
		schema: schema,
		ctx:    ctx,
		space:  schema.ParameterSpace(),
		lo:     lo,
		hi:     hi,
		grid:   pwl.NewGrid(lo, hi, cfg.ApproxCells),
	}, nil
}

// Space returns the parameter space polytope.
func (m *Model) Space() *geometry.Polytope { return m.space }

// MetricNames returns the cost metric names, index-aligned with the
// components of the produced cost functions.
func (m *Model) MetricNames() []string { return []string{"time", "fees"} }

// AccumModes returns the per-metric accumulation of sub-plan costs:
// sub-plans execute sequentially, so both time and fees add up.
func (m *Model) AccumModes() []pwl.AccumMode {
	return []pwl.AccumMode{pwl.AccumSum, pwl.AccumSum}
}

// Schema returns the underlying schema.
func (m *Model) Schema() *catalog.Schema { return m.schema }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// ScanOp names.
const (
	OpTableScan = "scan"
	OpIndexSeek = "idxscan"
	OpHashJoin  = "hash"
)

// OpParallelHash names the parallel hash join of the given degree.
func OpParallelHash(degree int) string { return fmt.Sprintf("parhash%d", degree) }

// OpSortMerge names the single-node sort-merge join.
const OpSortMerge = "sortmerge"

// OpBroadcast names the broadcast hash join of the given degree.
func OpBroadcast(degree int) string { return fmt.Sprintf("bcast%d", degree) }

// ScanCosts returns the available scan alternatives for table t as
// (operator name, cost function) pairs: a full table scan always, and an
// index seek when the table has an indexed predicate.
func (m *Model) ScanCosts(t catalog.TableID) []ScanCost {
	tab := m.schema.Tables[t]
	out := []ScanCost{{Op: OpTableScan, Cost: m.tableScanCost(tab)}}
	if tab.Pred != nil && tab.HasIndex {
		out = append(out, ScanCost{Op: OpIndexSeek, Cost: m.indexSeekCost(t, tab)})
	}
	return out
}

// ScanCost pairs a scan operator with its cost function.
type ScanCost struct {
	Op   string
	Cost *pwl.Multi
}

// JoinCost pairs a join operator with the cost of executing only the
// final join step (inputs already produced).
type JoinCost struct {
	Op   string
	Cost *pwl.Multi
}

// tableScanCost models a full scan with predicate evaluation: time is
// independent of the predicate selectivity.
func (m *Model) tableScanCost(tab catalog.Table) *pwl.Multi {
	time := tab.Card * (tab.TupleBytes/m.cfg.ScanBytesPerSec + m.cfg.CPUTupleSec)
	fees := time * m.cfg.PricePerNodeSec
	return pwl.NewMulti(
		pwl.Constant(m.space, time),
		pwl.Constant(m.space, fees),
	)
}

// indexSeekCost models an index seek retrieving the matching tuples:
// cost proportional to selectivity * cardinality, hence linear in the
// parameter when the selectivity is parameterized.
func (m *Model) indexSeekCost(t catalog.TableID, tab catalog.Table) *pwl.Multi {
	perTuple := m.cfg.IndexLookupSec
	var timeF *pwl.Function
	if tab.Pred.Parametric() {
		w := geometry.NewVector(m.schema.NumParams)
		w[tab.Pred.ParamIndex] = tab.Card * perTuple
		timeF = pwl.Linear(m.space, w, 0)
	} else {
		timeF = pwl.Constant(m.space, tab.Pred.ConstSel*tab.Card*perTuple)
	}
	feesF := pwl.Scale(timeF, m.cfg.PricePerNodeSec)
	return pwl.NewMulti(timeF, feesF)
}

// JoinCosts returns the available join operator alternatives for joining
// the results of left and right (left is the build side). Each cost
// covers only the final join step.
func (m *Model) JoinCosts(left, right catalog.TableSet) []JoinCost {
	out := make([]JoinCost, 0, 2+2*len(m.cfg.ParallelDegrees))
	out = append(out, JoinCost{Op: OpHashJoin, Cost: m.singleNodeHashCost(left, right)})
	for _, n := range m.cfg.ParallelDegrees {
		out = append(out, JoinCost{Op: OpParallelHash(n), Cost: m.parallelHashCost(left, right, n)})
	}
	if m.cfg.EnableSortMerge {
		out = append(out, JoinCost{Op: OpSortMerge, Cost: m.sortMergeCost(left, right)})
	}
	if m.cfg.EnableBroadcast {
		for _, n := range m.cfg.ParallelDegrees {
			out = append(out, JoinCost{Op: OpBroadcast(n), Cost: m.broadcastHashCost(left, right, n)})
		}
	}
	return out
}

// sortMergeCost: sort both inputs (n log n), then merge. No work-memory
// cliff (external sort is modeled inside the n log n constant), so it
// can beat the hash join exactly when the hash join spills — the
// crossover depends on the parameterized selectivities.
func (m *Model) sortMergeCost(left, right catalog.TableSet) *pwl.Multi {
	timeAt := func(x geometry.Vector) float64 {
		l := m.schema.OutputCard(left, x)
		r := m.schema.OutputCard(right, x)
		return sortCost(l, m.cfg.SortCPUTupleSec) + sortCost(r, m.cfg.SortCPUTupleSec) +
			(l+r)*m.cfg.CPUTupleSec
	}
	timeF := m.approximate(timeAt)
	feesF := pwl.Scale(timeF, m.cfg.PricePerNodeSec)
	return pwl.NewMulti(timeF, feesF)
}

func sortCost(n, perTuple float64) float64 {
	if n < 2 {
		return 0
	}
	return n * math.Log2(n) * perTuple
}

// broadcastHashCost: replicate the build side to all n nodes over the
// network, probe in place with the locally partitioned probe side. No
// probe-side shuffle, so it beats the partitioned parallel join when
// the build side is small relative to the probe side.
func (m *Model) broadcastHashCost(left, right catalog.TableSet, n int) *pwl.Multi {
	nf := float64(n)
	lBytes := m.tupleBytes(left)
	timeAt := func(x geometry.Vector) float64 {
		l := m.schema.OutputCard(left, x)
		r := m.schema.OutputCard(right, x)
		broadcast := l * lBytes / m.cfg.NetworkBytesPerSec // every node receives the full build side
		work := (l + r/nf) * m.cfg.CPUTupleSec
		if l*lBytes > m.cfg.WorkMemBytes {
			work += 2 * (l*lBytes + r*m.tupleBytes(right)/nf) / m.cfg.ScanBytesPerSec
		}
		return m.cfg.ParallelStartupSec + broadcast + work
	}
	timeF := m.approximate(timeAt)
	feesF := pwl.Scale(timeF, nf*m.cfg.PricePerNodeSec)
	return pwl.NewMulti(timeF, feesF)
}

// singleNodeHashCost: build a hash table over the left input, probe with
// the right input on one node. When the build side exceeds work memory
// both inputs pay an extra partitioning pass (Grace hash join).
func (m *Model) singleNodeHashCost(left, right catalog.TableSet) *pwl.Multi {
	tupleBytes := m.tupleBytes(left)
	timeAt := func(x geometry.Vector) float64 {
		l := m.schema.OutputCard(left, x)
		r := m.schema.OutputCard(right, x)
		t := (l + r) * m.cfg.CPUTupleSec
		if l*tupleBytes > m.cfg.WorkMemBytes {
			// Partition both inputs to disk and re-read them.
			t += 2 * (l*tupleBytes + r*m.tupleBytes(right)) / m.cfg.ScanBytesPerSec
		}
		return t
	}
	timeF := m.approximate(timeAt)
	feesF := pwl.Scale(timeF, m.cfg.PricePerNodeSec)
	return pwl.NewMulti(timeF, feesF)
}

// parallelHashCost: shuffle both inputs across n nodes, then build and
// probe in parallel. Fees are proportional to total node-seconds
// (n * elapsed time), so parallelization always costs more money while
// potentially saving time — the central tradeoff of Scenario 1.
func (m *Model) parallelHashCost(left, right catalog.TableSet, n int) *pwl.Multi {
	nf := float64(n)
	lBytes, rBytes := m.tupleBytes(left), m.tupleBytes(right)
	timeAt := func(x geometry.Vector) float64 {
		l := m.schema.OutputCard(left, x)
		r := m.schema.OutputCard(right, x)
		shuffle := (l*lBytes + r*rBytes) / (m.cfg.NetworkBytesPerSec * nf)
		work := (l + r) * m.cfg.CPUTupleSec / nf
		if l*lBytes/nf > m.cfg.WorkMemBytes {
			work += 2 * (l*lBytes + r*rBytes) / (m.cfg.ScanBytesPerSec * nf)
		}
		return m.cfg.ParallelStartupSec + shuffle + work
	}
	timeF := m.approximate(timeAt)
	feesF := pwl.Scale(timeF, nf*m.cfg.PricePerNodeSec)
	return pwl.NewMulti(timeF, feesF)
}

// tupleBytes estimates the row width of an intermediate result: the sum
// of the widths of the participating tables.
func (m *Model) tupleBytes(set catalog.TableSet) float64 {
	w := 0.0
	for _, t := range set.Tables() {
		w += m.schema.Tables[t].TupleBytes
	}
	return w
}

// approximate converts a cost closure into a PWL function. Closures that
// are (numerically) linear over the parameter space are represented
// exactly with a single piece; others are interpolated on the shared
// Kuhn grid so that piece regions of different cost functions align and
// accumulation does not multiply piece counts. All results carry the
// model's parameter space as their cover.
func (m *Model) approximate(f func(geometry.Vector) float64) *pwl.Function {
	if lin, ok := m.linearFit(f); ok {
		return lin
	}
	return m.grid.Interpolate(f).WithCover(m.space)
}

// linearFit interpolates f linearly from d+1 probe points and accepts
// the fit when it matches f on a verification grid within a small
// relative tolerance.
func (m *Model) linearFit(f func(geometry.Vector) float64) (*pwl.Function, bool) {
	d := m.schema.NumParams
	// Probe points: lo corner and lo+span*e_i.
	probes := make([]geometry.Vector, d+1)
	probes[0] = m.lo.Clone()
	for i := 0; i < d; i++ {
		p := m.lo.Clone()
		p[i] = m.hi[i]
		probes[i+1] = p
	}
	a := make([][]float64, d+1)
	rhs := make([]float64, d+1)
	for r, p := range probes {
		row := make([]float64, d+1)
		copy(row, p)
		row[d] = 1
		a[r] = row
		rhs[r] = f(p)
	}
	sol, ok := geometry.SolveLinearSystem(a, rhs)
	if !ok {
		return nil, false
	}
	w := geometry.Vector(sol[:d]).Clone()
	b := sol[d]
	// Verify on a grid.
	scale := 1.0
	for _, v := range rhs {
		if av := abs(v); av > scale {
			scale = av
		}
	}
	for _, x := range geometry.SamplePointsInBox(m.lo, m.hi, 5, 200) {
		if abs(w.Dot(x)+b-f(x)) > 1e-9*scale {
			return nil, false
		}
	}
	return pwl.Linear(m.space, w, b), true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
