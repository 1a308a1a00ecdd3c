package geometry

import "math"

// LPStatus classifies the outcome of a linear program.
type LPStatus int

const (
	// LPOptimal means an optimal solution was found.
	LPOptimal LPStatus = iota
	// LPInfeasible means the constraint set is empty.
	LPInfeasible
	// LPUnbounded means the objective is unbounded above.
	LPUnbounded
	// LPMaxIter means the solver gave up after the iteration cap;
	// callers should treat the result conservatively.
	LPMaxIter
)

func (s LPStatus) String() string {
	switch s {
	case LPOptimal:
		return "optimal"
	case LPInfeasible:
		return "infeasible"
	case LPUnbounded:
		return "unbounded"
	case LPMaxIter:
		return "max-iterations"
	}
	return "unknown"
}

// LPResult is the outcome of a linear program solve.
type LPResult struct {
	Status LPStatus
	// Value is the optimal objective value (for LPOptimal).
	Value float64
	// X is the optimizing point (for LPOptimal) or a feasible point
	// (for FeasiblePoint).
	X Vector
}

// Maximize solves
//
//	max  obj·x
//	s.t. h.W·x <= h.B  for every h in hs,
//
// with x free, using a dense two-phase simplex method. Degenerate
// halfspaces (zero weight vectors) are resolved directly. Every call
// increments s.Stats.LPs.
func (s *Solver) Maximize(obj Vector, hs []Halfspace) LPResult {
	s.Stats.LPs++
	t, infeasible := newTableau(s, len(obj), hs)
	if infeasible {
		return LPResult{Status: LPInfeasible}
	}
	if st := t.phase1(); st != LPOptimal {
		return LPResult{Status: st}
	}
	st := t.phase2(obj)
	if st != LPOptimal {
		return LPResult{Status: st}
	}
	x := t.solution()
	return LPResult{Status: LPOptimal, Value: obj.Dot(x), X: x}
}

// FeasiblePoint returns a point satisfying all halfspaces, if one exists.
// It runs only phase 1 of the simplex method and counts as one LP.
func (s *Solver) FeasiblePoint(hs []Halfspace, dim int) LPResult {
	s.Stats.LPs++
	t, infeasible := newTableau(s, dim, hs)
	if infeasible {
		return LPResult{Status: LPInfeasible}
	}
	if st := t.phase1(); st != LPOptimal {
		return LPResult{Status: st}
	}
	x := t.solution()
	return LPResult{Status: LPOptimal, X: x}
}

// supportSolver answers repeated support-value queries (max obj·x over
// a fixed halfspace system) while running phase 1 only once: after the
// first query the feasible basis is snapshotted and every further query
// restores it and runs phase 2 alone. Each query still counts as one
// solved LP, so aggregate Stats.LPs is unchanged relative to solving
// every query from scratch.
//
// The snapshot lives in solver scratch: at most one supportSolver may
// be active per Solver at a time (queries of a second one would corrupt
// the first's snapshot). All current users (Contains, BoundingBox,
// UnionConvex) respect this by construction.
type supportSolver struct {
	s        *Solver
	hs       []Halfspace
	dim      int
	prepared bool
	status   LPStatus // preparation outcome: LPOptimal, LPInfeasible or LPMaxIter
	// Snapshot of the post-phase-1 tableau.
	m, n, noArt int
	rows        []float64 // m*(n+1) flattened
	basis       []int
}

func (s *Solver) newSupportSolver(hs []Halfspace, dim int) *supportSolver {
	return &supportSolver{s: s, hs: hs, dim: dim}
}

// prepare runs phase 1 once and snapshots the feasible basis. It does
// not count an LP by itself; the callers' queries do.
func (ss *supportSolver) prepare() {
	ss.prepared = true
	s := ss.s
	t, infeasible := newTableau(s, ss.dim, ss.hs)
	if infeasible {
		ss.status = LPInfeasible
		return
	}
	if st := t.phase1(); st != LPOptimal {
		ss.status = st
		return
	}
	ss.status = LPOptimal
	ss.m, ss.n, ss.noArt = t.m, t.n, t.noArt
	ss.rows = grow(&s.scratchSnapRows, t.m*(t.n+1))
	for i := 0; i < t.m; i++ {
		copy(ss.rows[i*(t.n+1):(i+1)*(t.n+1)], t.rows[i])
	}
	ss.basis = grow(&s.scratchSnapBasis, t.m)
	copy(ss.basis, t.basis)
}

// Empty reports whether phase 1 proved the system infeasible. Counts as
// one LP. An iteration-capped preparation is NOT empty, which keeps
// callers conservative: they proceed and their value queries report
// ok=false.
func (ss *supportSolver) Empty() bool {
	ss.s.Stats.LPs++
	if !ss.prepared {
		ss.prepare()
	}
	return ss.status == LPInfeasible
}

// Value solves max obj·x over the system, reusing the snapshotted
// feasible basis. Counts as one LP. The result semantics match
// Solver.SupportValue.
func (ss *supportSolver) Value(obj Vector) (val float64, ok bool, unbounded bool) {
	ss.s.Stats.LPs++
	if !ss.prepared {
		ss.prepare()
	}
	if ss.status != LPOptimal {
		return 0, false, false
	}
	t := ss.restore()
	st := t.phase2(obj)
	switch st {
	case LPOptimal:
		x := t.solution()
		return obj.Dot(x), true, false
	case LPUnbounded:
		return 0, false, true
	default:
		return 0, false, false
	}
}

// restore rebuilds the scratch tableau from the snapshot. The backing
// buffers may have been reused by unrelated solves in between; the
// snapshot is authoritative.
func (ss *supportSolver) restore() *tableau {
	s := ss.s
	t := &s.scratchTableau
	*t = tableau{ctx: s, dim: ss.dim, m: ss.m, n: ss.n, noArt: ss.noArt, nArt: ss.n - ss.noArt}
	t.rows = grow(&s.scratchRows, ss.m)
	backing := grow(&s.scratchBacking, ss.m*(ss.n+1))
	copy(backing, ss.rows)
	for i := 0; i < ss.m; i++ {
		t.rows[i] = backing[i*(ss.n+1) : (i+1)*(ss.n+1)]
	}
	t.basis = grow(&s.scratchBasis, ss.m)
	copy(t.basis, ss.basis)
	return t
}

// tableau is a dense simplex tableau for the standard-form program
//
//	min c·y  s.t.  A y = b, y >= 0, b >= 0,
//
// derived from free variables x = u - v plus one slack per row and one
// artificial per row. Column layout: u(0..d-1), v(d..2d-1),
// s(2d..2d+m-1), artificials(2d+m..2d+2m-1).
type tableau struct {
	ctx   *Solver
	dim   int
	m     int // active rows
	n     int // total columns (incl. artificials), excl. RHS
	noArt int // first artificial column
	nArt  int // number of artificial columns
	rows  [][]float64
	obj   []float64 // reduced costs, len n+1; [n] = -objective value
	basis []int
}

// newTableau builds the tableau, filtering degenerate halfspaces and
// normalizing rows in place. Scratch buffers on the Solver are reused
// across LPs to keep allocation pressure low (Solvers are
// single-threaded; no LP nests inside another). infeasible is true when
// a degenerate constraint 0·x <= b with b < 0 is present.
//
// Rows with non-negative bounds start with their slack variable basic;
// only rows with negative bounds need an artificial variable. When no
// artificials are needed, phase 1 is skipped entirely.
func newTableau(ctx *Solver, dim int, hs []Halfspace) (t *tableau, infeasible bool) {
	// Count usable rows and needed artificials first.
	m, nArt := 0, 0
	for _, h := range hs {
		if h.IsInfeasible(ctx.Eps) {
			return nil, true
		}
		if !h.IsTrivial(ctx.Eps) {
			m++
			if h.B < 0 {
				nArt++
			}
		}
	}
	noArt := 2*dim + m
	n := noArt + nArt
	t = &ctx.scratchTableau
	*t = tableau{ctx: ctx, dim: dim, m: m, n: n, noArt: noArt, nArt: nArt}
	t.rows = grow(&ctx.scratchRows, m)
	t.basis = grow(&ctx.scratchBasis, m)
	backing := grow(&ctx.scratchBacking, m*(n+1))
	for i := range backing {
		backing[i] = 0
	}
	i, art := 0, 0
	for _, h := range hs {
		if h.IsTrivial(ctx.Eps) {
			continue
		}
		row := backing[i*(n+1) : (i+1)*(n+1)]
		scale := 1.0
		if mInf := h.W.NormInf(); mInf > 1e-300 {
			scale = 1 / mInf
		}
		sign := scale
		if h.B < 0 {
			sign = -scale
		}
		for j := 0; j < dim; j++ {
			row[j] = sign * h.W[j]
			row[dim+j] = -sign * h.W[j]
		}
		if h.B < 0 {
			row[2*dim+i] = -1 // slack (sign-flipped row)
			row[noArt+art] = 1
			t.basis[i] = noArt + art
			art++
		} else {
			row[2*dim+i] = 1
			t.basis[i] = 2*dim + i // slack starts basic
		}
		row[n] = sign * h.B
		t.rows[i] = row
		i++
	}
	return t, false
}

// grow resizes a scratch buffer to exactly n elements, reallocating
// only when capacity is exceeded.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// phase1 minimizes the sum of artificials. On success the artificials are
// driven out of the basis (redundant rows are deleted) and the tableau is
// feasible for phase 2.
func (t *tableau) phase1() LPStatus {
	if t.nArt == 0 {
		// All slacks basic with non-negative bounds: feasible as built.
		return LPOptimal
	}
	// Phase-1 objective: cost 1 on artificials. Reduced costs after
	// eliminating the basic artificial columns (rows whose basis entry
	// is an artificial).
	obj := grow(&t.ctx.scratchObj1, t.n+1)
	for i := range obj {
		obj[i] = 0
	}
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.noArt {
			continue
		}
		for j := 0; j <= t.n; j++ {
			if j < t.noArt || j == t.n {
				obj[j] -= t.rows[i][j]
			}
		}
	}
	t.obj = obj
	st := t.iterate(false)
	if st == LPUnbounded {
		// Phase 1 is bounded below by 0; unbounded indicates a numerical
		// failure, treat as iteration cap.
		return LPMaxIter
	}
	if st != LPOptimal {
		return st
	}
	if -t.obj[t.n] > 1e-7 {
		return LPInfeasible
	}
	t.driveOutArtificials()
	return LPOptimal
}

// driveOutArtificials pivots basic artificials to structural columns or
// deletes redundant rows.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; {
		if t.basis[i] < t.noArt {
			i++
			continue
		}
		// Find a structural column with a nonzero entry.
		col := -1
		for j := 0; j < t.noArt; j++ {
			if math.Abs(t.rows[i][j]) > 1e-8 {
				col = j
				break
			}
		}
		if col >= 0 {
			t.pivot(i, col)
			i++
			continue
		}
		// Redundant row: delete it.
		t.rows[i] = t.rows[t.m-1]
		t.basis[i] = t.basis[t.m-1]
		t.rows = t.rows[:t.m-1]
		t.basis = t.basis[:t.m-1]
		t.m--
	}
}

// phase2 maximizes objX·x, i.e. minimizes -objX·(u-v).
func (t *tableau) phase2(objX Vector) LPStatus {
	obj := grow(&t.ctx.scratchObj2, t.n+1)
	for i := range obj {
		obj[i] = 0
	}
	for j := 0; j < t.dim; j++ {
		obj[j] = -objX[j]
		obj[t.dim+j] = objX[j]
	}
	// Eliminate basic columns from the objective row.
	for i := 0; i < t.m; i++ {
		c := obj[t.basis[i]]
		if c == 0 { //mpq:floatexact exact-zero skip: eliminating a zero coefficient is algebraically a no-op; a tolerance would alter the tableau
			continue
		}
		for j := 0; j <= t.n; j++ {
			obj[j] -= c * t.rows[i][j]
		}
	}
	t.obj = obj
	return t.iterate(true)
}

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration cap. Artificial columns are blocked from entering when
// blockArt is set (phase 2).
func (t *tableau) iterate(blockArt bool) LPStatus {
	eps := t.ctx.Eps
	maxIter := t.ctx.MaxSimplexIter
	if maxIter <= 0 {
		maxIter = 500
	}
	hardCap := 50 * maxIter
	bland := false
	for iter := 0; ; iter++ {
		if iter > maxIter {
			bland = true
		}
		if iter > hardCap {
			return LPMaxIter
		}
		t.ctx.Stats.LPIterations++
		limit := t.n
		if blockArt {
			limit = t.noArt
		}
		col := -1
		if bland {
			for j := 0; j < limit; j++ {
				if t.obj[j] < -eps {
					col = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < limit; j++ {
				if t.obj[j] < best {
					best = t.obj[j]
					col = j
				}
			}
		}
		if col < 0 {
			return LPOptimal
		}
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			a := t.rows[i][col]
			if a <= eps {
				continue
			}
			r := t.rows[i][t.n] / a
			if r < 0 {
				r = 0
			}
			if r < bestRatio-eps {
				bestRatio = r
				row = i
			} else if r < bestRatio+eps && row >= 0 && t.basis[i] < t.basis[row] {
				row = i // Bland tie-break on leaving variable
			}
		}
		if row < 0 {
			return LPUnbounded
		}
		t.pivot(row, col)
	}
}

// pivot makes column col basic in row row.
func (t *tableau) pivot(row, col int) {
	p := t.rows[row][col]
	inv := 1 / p
	r := t.rows[row]
	for j := 0; j <= t.n; j++ {
		r[j] *= inv
	}
	r[col] = 1
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if f == 0 { //mpq:floatexact exact-zero skip: a zero multiplier makes the row update a no-op; a tolerance would alter the tableau
			continue
		}
		ri := t.rows[i]
		for j := 0; j <= t.n; j++ {
			ri[j] -= f * r[j]
		}
		ri[col] = 0
		if ri[t.n] < 0 && ri[t.n] > -1e-12 {
			ri[t.n] = 0
		}
	}
	f := t.obj[col]
	if f != 0 { //mpq:floatexact exact-zero skip: a zero multiplier makes the objective update a no-op
		for j := 0; j <= t.n; j++ {
			t.obj[j] -= f * r[j]
		}
		t.obj[col] = 0
	}
	t.basis[row] = col
}

// solution reads x = u - v from the basic variables.
func (t *tableau) solution() Vector {
	x := NewVector(t.dim)
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		val := t.rows[i][t.n]
		switch {
		case b < t.dim:
			x[b] += val
		case b < 2*t.dim:
			x[b-t.dim] -= val
		}
	}
	return x
}
