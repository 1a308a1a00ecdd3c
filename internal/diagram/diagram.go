// Package diagram renders plan diagrams: discretizations of the
// parameter space recording which plans matter where. Plan diagrams are
// the standard visualization of parametric optimizer output (Reddy &
// Haritsa; Dey et al. — cited as [25, 12] by the paper). For MPQ the
// natural diagram shows, per parameter-space cell, either the size of
// the Pareto front (how much choice a user has) or the winning plan
// under a concrete preference policy.
package diagram

import (
	"fmt"
	"io"
	"strings"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
)

// Cell is one grid cell of a diagram.
type Cell struct {
	// X is the cell's center in parameter space.
	X geometry.Vector
	// Value is the diagram value (front size, or winner index).
	Value int
}

// Diagram is a discretized map over a one- or two-dimensional parameter
// space.
type Diagram struct {
	// Lo and Hi bound the diagrammed box.
	Lo, Hi geometry.Vector
	// Resolution is the number of cells per dimension.
	Resolution int
	// Cells in row-major order (x2 outer, x1 inner for 2D).
	Cells []Cell
	// Legend maps values to descriptions (plan names for winner
	// diagrams).
	Legend map[int]string
}

// PlanCosts is the minimal interface diagrams need: evaluable
// multi-objective costs.
type PlanCosts interface {
	NumPlans() int
	PlanName(i int) string
	CostAt(i int, x geometry.Vector) geometry.Vector
}

// MultiSlice adapts a slice of (name, cost) pairs to PlanCosts.
type MultiSlice struct {
	Names []string
	Costs []*pwl.Multi
}

// NumPlans implements PlanCosts.
func (m *MultiSlice) NumPlans() int { return len(m.Costs) }

// PlanName implements PlanCosts.
func (m *MultiSlice) PlanName(i int) string { return m.Names[i] }

// CostAt implements PlanCosts.
func (m *MultiSlice) CostAt(i int, x geometry.Vector) geometry.Vector {
	v, _ := m.Costs[i].Eval(x)
	return v
}

// FrontSize builds the diagram of Pareto-front cardinalities: how many
// distinct cost tradeoffs are available per parameter cell.
func FrontSize(plans PlanCosts, lo, hi geometry.Vector, resolution int) (*Diagram, error) {
	d, err := newDiagram(lo, hi, resolution)
	if err != nil {
		return nil, err
	}
	for i := range d.Cells {
		x := d.Cells[i].X
		d.Cells[i].Value = frontSizeAt(plans, x)
	}
	return d, nil
}

// Winner builds the diagram of winning plans under a weighted-sum
// preference. The legend maps values to plan names; value -1 marks
// cells without plans.
func Winner(plans PlanCosts, lo, hi geometry.Vector, resolution int, weights []float64) (*Diagram, error) {
	d, err := newDiagram(lo, hi, resolution)
	if err != nil {
		return nil, err
	}
	d.Legend = make(map[int]string)
	for i := range d.Cells {
		x := d.Cells[i].X
		best, bestVal := -1, 0.0
		for p := 0; p < plans.NumPlans(); p++ {
			c := plans.CostAt(p, x)
			v := 0.0
			for m, w := range weights {
				v += w * c[m]
			}
			if best < 0 || v < bestVal {
				best, bestVal = p, v
			}
		}
		d.Cells[i].Value = best
		if best >= 0 {
			d.Legend[best] = plans.PlanName(best)
		}
	}
	return d, nil
}

// frontSizeAt counts the plans whose cost vectors are Pareto-optimal
// at x (duplicates collapse to the first).
func frontSizeAt(plans PlanCosts, x geometry.Vector) int {
	costs := make([]geometry.Vector, plans.NumPlans())
	for i := range costs {
		costs[i] = plans.CostAt(i, x)
	}
	return len(geometry.ParetoFront(costs, func(v geometry.Vector) geometry.Vector { return v }))
}

func newDiagram(lo, hi geometry.Vector, resolution int) (*Diagram, error) {
	dim := len(lo)
	if dim != 1 && dim != 2 {
		return nil, fmt.Errorf("diagram: only 1- and 2-dimensional parameter spaces supported, got %d", dim)
	}
	if resolution < 1 {
		return nil, fmt.Errorf("diagram: resolution %d < 1", resolution)
	}
	d := &Diagram{Lo: lo.Clone(), Hi: hi.Clone(), Resolution: resolution}
	if dim == 1 {
		for i := 0; i < resolution; i++ {
			x := geometry.Vector{cellCenter(lo[0], hi[0], resolution, i)}
			d.Cells = append(d.Cells, Cell{X: x})
		}
		return d, nil
	}
	for j := 0; j < resolution; j++ {
		for i := 0; i < resolution; i++ {
			x := geometry.Vector{
				cellCenter(lo[0], hi[0], resolution, i),
				cellCenter(lo[1], hi[1], resolution, j),
			}
			d.Cells = append(d.Cells, Cell{X: x})
		}
	}
	return d, nil
}

func cellCenter(lo, hi float64, res, i int) float64 {
	w := (hi - lo) / float64(res)
	return lo + (float64(i)+0.5)*w
}

// glyphs used by RenderASCII; values index into this string, larger
// values wrap around.
const glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// RenderASCII writes the diagram as text: one row for 1D, a grid for 2D
// (x1 rightward, x2 upward), followed by the legend if present.
func (d *Diagram) RenderASCII(w io.Writer) {
	glyph := func(v int) byte {
		if v < 0 {
			return '.'
		}
		return glyphs[v%len(glyphs)]
	}
	if len(d.Lo) == 1 {
		var sb strings.Builder
		for _, c := range d.Cells {
			sb.WriteByte(glyph(c.Value))
		}
		fmt.Fprintf(w, "x1: %.3g .. %.3g\n%s\n", d.Lo[0], d.Hi[0], sb.String())
	} else {
		fmt.Fprintf(w, "x1: %.3g..%.3g (right), x2: %.3g..%.3g (up)\n", d.Lo[0], d.Hi[0], d.Lo[1], d.Hi[1])
		for j := d.Resolution - 1; j >= 0; j-- {
			var sb strings.Builder
			for i := 0; i < d.Resolution; i++ {
				sb.WriteByte(glyph(d.Cells[j*d.Resolution+i].Value))
			}
			fmt.Fprintln(w, sb.String())
		}
	}
	if len(d.Legend) > 0 {
		fmt.Fprintln(w, "legend:")
		for v := 0; v < len(glyphs); v++ {
			if name, ok := d.Legend[v]; ok {
				fmt.Fprintf(w, "  %c = %s\n", glyphs[v%len(glyphs)], name)
			}
		}
	}
}

// WriteCSV emits cell centers and values.
func (d *Diagram) WriteCSV(w io.Writer) {
	if len(d.Lo) == 1 {
		fmt.Fprintln(w, "x1,value")
		for _, c := range d.Cells {
			fmt.Fprintf(w, "%g,%d\n", c.X[0], c.Value)
		}
		return
	}
	fmt.Fprintln(w, "x1,x2,value")
	for _, c := range d.Cells {
		fmt.Fprintf(w, "%g,%g,%d\n", c.X[0], c.X[1], c.Value)
	}
}

// Distinct returns the number of distinct values in the diagram — for
// winner diagrams, the number of plans that win somewhere (the "plan
// cardinality" of plan-diagram research).
func (d *Diagram) Distinct() int {
	seen := map[int]bool{}
	for _, c := range d.Cells {
		seen[c.Value] = true
	}
	return len(seen)
}
