// Package index implements a point-location pick index over a prepared
// Pareto plan set's parameter space: an adaptive binary-split (kd-tree
// style) decomposition of the parameter box whose leaves store the ids
// of the candidates whose relevance regions intersect the leaf cell.
// Run-time plan selection then scans only a leaf's candidate subset
// instead of every candidate — the precomputed decision structure the
// serving layer uses to turn high pick rates over one plan set into
// cell lookups (in the spirit of plan diagrams, which discretize
// parametric optimizer output the same way).
//
// The index is *conservative*: a candidate is dropped from a cell only
// when one of its relevance-region cutouts provably contains the whole
// cell beyond the containment tolerance of the selection policies
// (selection.ContainsEps), and a cost piece is dropped from a leaf's
// evaluation view only when one of its normalized constraints is
// violated beyond pwl's evaluation tolerance everywhere in the cell
// (with the full piece scan as the in-view fallback). Every selection
// policy therefore returns byte-identical results through the index and
// through the full linear scan; internal/index's property test and the
// serving layer's stress tests assert this end to end.
//
// Builds are deterministic for any Options.Workers: the tree shape
// depends only on the candidate set and the build options, never on
// goroutine scheduling, so persisted indexes (the store's v3 "index"
// stanza) are byte-stable across processes and pool sizes.
package index

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/selection"
)

// Tolerances of the conservative cell tests. Candidate exclusion must
// be strict with respect to selection.ContainsEps (a dropped candidate
// must fail the policy's containment test at *every* point routed to
// the cell), piece exclusion with respect to pwl's 1e-9 evaluation
// tolerance; both margins are three orders of magnitude wider, plus a
// relative term absorbing the closed-form box arithmetic error.
const (
	cellStrictEps = 1e-6
	cellRelEps    = geometry.CompareEps
	// boxPadFactor pads the root bounding box so that every point the
	// serving layer accepts (inside the parameter space within 1e-9,
	// with LP-tolerance bounding-box edges) is strictly inside the
	// padded box.
	boxPadFactor = 1e-6
)

// Options configures an index build. The zero value selects the
// defaults.
type Options struct {
	// LeafTarget stops splitting once a cell holds at most this many
	// *prunable* candidates (candidates with relevance-region cutouts;
	// always-relevant candidates appear in every leaf and do not count).
	// Zero selects 4.
	LeafTarget int
	// MaxDepth bounds the tree depth. Zero selects 16.
	MaxDepth int
	// MaxLeaves bounds the leaf count; the budget is divided evenly
	// between subtrees at every split, so the bound is deterministic and
	// independent of build parallelism. Zero sizes the budget by the
	// plan set: leavesPerCandidate leaves per prunable candidate, at
	// most maxLeavesCap.
	MaxLeaves int
	// Workers is the build parallelism: subtrees near the root are built
	// by concurrent goroutines. The resulting tree is identical for any
	// value. Zero selects 1.
	Workers int
}

// withDefaults normalizes zero fields.
func (o Options) withDefaults() Options {
	if o.LeafTarget <= 0 {
		o.LeafTarget = 4
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// The default leaf budget. A candidate stays in every cell that a seam
// between two of its own cutouts crosses, so along the seams of a set
// with more than LeafTarget prunable candidates the target is never
// reached, and a fixed budget is spent splitting seams to its depth
// limit whatever the set's size. Budgeting per prunable candidate keeps
// the tree proportional to the plan set instead.
const (
	leavesPerCandidate = 16
	maxLeavesCap       = 4096
)

// defaultMaxLeaves returns the leaf budget of a build whose
// Options.MaxLeaves is zero: leavesPerCandidate per prunable candidate,
// between 1 and maxLeavesCap.
func defaultMaxLeaves(cands []selection.Candidate) int {
	prunable := 0
	for _, c := range cands {
		if prunableCandidate(c) {
			prunable++
		}
	}
	return min(max(1, leavesPerCandidate*prunable), maxLeavesCap)
}

// Index is a built point-location index. It is immutable and safe for
// concurrent use.
type Index struct {
	dim    int
	lo, hi geometry.Vector // padded bounding box of the parameter space
	opts   Options         // build options (normalized, effective MaxLeaves; Workers not persisted)
	nodes  []node          // preorder, nodes[0] is the root

	leaves        int
	leafCandTotal int64
	maxDepth      int
	buildTime     time.Duration
}

// node is one tree node. Internal nodes route by x[dim] < split; leaves
// hold the candidate ids (ascending plan order). right == 0 marks a
// leaf: in preorder the root is never a child, so no internal node can
// reference index 0.
type node struct {
	dim   int32
	left  int32
	right int32
	split float64
	cands []int32
}

// Build constructs the index for a candidate set over the given
// parameter space. The solver is used only to compute the space's
// bounding box; the build itself is closed-form box arithmetic,
// parallelized across opts.Workers goroutines with a deterministic
// result.
func Build(s *geometry.Solver, space *geometry.Polytope, cands []selection.Candidate, opts Options) (*Index, error) {
	start := time.Now() //mpq:wallclock build-time stat (Stats.Index.BuildTime); never reaches the tree shape
	opts = opts.withDefaults()
	if opts.MaxLeaves <= 0 {
		opts.MaxLeaves = defaultMaxLeaves(cands)
	}
	dim := space.Dim()
	lo, hi, ok := s.BoundingBox(space)
	if !ok {
		return nil, fmt.Errorf("index: parameter space has no bounded box")
	}
	// Pad so every servable point (inside the space within the pick
	// tolerance) is strictly interior to the root box.
	for i := 0; i < dim; i++ {
		pad := boxPadFactor * (1 + math.Abs(hi[i]-lo[i]))
		lo[i] -= pad
		hi[i] += pad
	}
	b := &builder{cands: cands, opts: opts}
	// Spawn goroutines only near the root: ~log2(Workers)+1 levels keep
	// every worker busy without flooding the scheduler.
	for d := 1; d < opts.Workers; d *= 2 {
		b.parDepth++
	}
	sc := &scratch{}
	top := sc.cell(0)
	for i, c := range cands {
		if prunableCandidate(c) {
			for _, cut := range c.RR.Cutouts() {
				if !boxDisjoint(lo, hi, cut) {
					top.cuts = append(top.cuts, cut)
				}
			}
		}
		top.ids = append(top.ids, int32(i))
		top.ends = append(top.ends, int32(len(top.cuts)))
	}
	root := b.build(lo, hi, top, 0, opts.MaxLeaves, sc)
	ix := &Index{dim: dim, lo: lo, hi: hi, opts: opts}
	ix.flatten(root, 0)
	ix.buildTime = time.Since(start) //mpq:wallclock build-time stat; never reaches the tree shape
	return ix, nil
}

// builder carries the immutable build inputs.
type builder struct {
	cands    []selection.Candidate
	opts     Options
	parDepth int
}

// bnode is the pointer-linked build-time tree, flattened to the
// preorder node array once the build completes.
type bnode struct {
	dim         int
	split       float64
	left, right *bnode
	cands       []int32
}

// cell is the candidate list of one tree cell: the kept candidate ids
// in ascending plan order and, per id, the cutouts of its relevance
// region not provably disjoint from the cell (cuts between the
// previous id's end and its own). boxDisjoint is monotone under box
// shrinking, so a cutout disjoint from a cell is disjoint from every
// descendant cell and can never exclude the candidate or make a split
// worthwhile there: children rescan only their parent's overlapping
// cutouts.
type cell struct {
	ids  []int32
	cuts []*geometry.Polytope
	ends []int32
}

// cutouts returns the overlapping cutouts of the cell's i-th candidate.
func (c *cell) cutouts(i int) []*geometry.Polytope {
	lo := int32(0)
	if i > 0 {
		lo = c.ends[i-1]
	}
	return c.cuts[lo:c.ends[i]]
}

// scratch is one build goroutine's reusable buffers: the cell of each
// tree depth (a node's children are filtered and built one after the
// other, so one cell per depth serves the whole sequential subtree),
// the cutout lists of each union-coverage probe depth, and the probe's
// box.
type scratch struct {
	cells  []*cell
	probes [coverProbeDepth][]*geometry.Polytope
	lo, hi geometry.Vector
}

// cell returns the depth's cell buffer.
func (sc *scratch) cell(depth int) *cell {
	for len(sc.cells) <= depth {
		sc.cells = append(sc.cells, &cell{})
	}
	return sc.cells[depth]
}

// build recursively decomposes the closed cell [lo,hi] holding the
// candidates of cl, a buffer of sc. budget is the maximum number of
// leaves this subtree may produce (split evenly between children, so
// the bound is schedule-independent).
func (b *builder) build(lo, hi geometry.Vector, cl *cell, depth, budget int, sc *scratch) *bnode {
	prunable := 0
	for _, id := range cl.ids {
		if prunableCandidate(b.cands[id]) {
			prunable++
		}
	}
	// Splitting can still shed a candidate only if some kept candidate
	// has a cutout overlapping the cell (a cutout containing the whole
	// cell would already have excluded the candidate). Purely a
	// termination heuristic — it cannot affect soundness, only tree
	// size.
	refinable := len(cl.cuts) > 0
	if prunable <= b.opts.LeafTarget || depth >= b.opts.MaxDepth ||
		budget < 2 || !refinable {
		return &bnode{cands: append(make([]int32, 0, len(cl.ids)), cl.ids...)}
	}
	// Split the widest dimension at its midpoint (lowest dimension on
	// ties — deterministic).
	d := widest(lo, hi)
	split := (lo[d] + hi[d]) / 2
	if !(split > lo[d] && split < hi[d]) {
		// Degenerate cell (zero width or non-finite bounds): stop.
		return &bnode{cands: append(make([]int32, 0, len(cl.ids)), cl.ids...)}
	}
	leftHi := hi.Clone()
	leftHi[d] = split
	rightLo := lo.Clone()
	rightLo[d] = split
	lb := (budget + 1) / 2
	rb := budget - lb
	n := &bnode{dim: d, split: split}
	if depth < b.parDepth {
		lsc := &scratch{}
		left := lsc.cell(depth + 1)
		b.filter(lo, leftHi, cl, left, lsc)
		right := sc.cell(depth + 1)
		b.filter(rightLo, hi, cl, right, sc)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.left = b.build(lo, leftHi, left, depth+1, lb, lsc)
		}()
		n.right = b.build(rightLo, hi, right, depth+1, rb, sc)
		wg.Wait()
	} else {
		child := sc.cell(depth + 1)
		b.filter(lo, leftHi, cl, child, sc)
		n.left = b.build(lo, leftHi, child, depth+1, lb, sc)
		b.filter(rightLo, hi, cl, child, sc)
		n.right = b.build(rightLo, hi, child, depth+1, rb, sc)
	}
	return n
}

// widest returns the box's widest dimension (lowest on ties).
func widest(lo, hi geometry.Vector) int {
	d := 0
	for i := 1; i < len(lo); i++ {
		if hi[i]-lo[i] > hi[d]-lo[d] {
			d = i
		}
	}
	return d
}

// boxDisjoint reports whether the cutout is provably disjoint from the
// box: some constraint's box minimum already exceeds its bound.
func boxDisjoint(lo, hi geometry.Vector, c *geometry.Polytope) bool {
	for _, h := range c.Constraints() {
		mn := 0.0
		for i, w := range h.W {
			if w > 0 {
				mn += w * lo[i]
			} else {
				mn += w * hi[i]
			}
		}
		if mn > h.B {
			return true
		}
	}
	return false
}

// filter writes to out the candidates of the parent cell whose
// relevance region may intersect the closed sub-box [lo,hi], preserving
// order, each with its cutouts overlapping the sub-box. A candidate is
// dropped when its cutouts strictly cover the whole sub-box — then
// every point routed there fails the policies' containment test and
// the candidate cannot influence any pick there.
func (b *builder) filter(lo, hi geometry.Vector, parent, out *cell, sc *scratch) {
	out.ids, out.cuts, out.ends = out.ids[:0], out.cuts[:0], out.ends[:0]
	for i, id := range parent.ids {
		from := len(out.cuts)
		for _, cut := range parent.cutouts(i) {
			if !boxDisjoint(lo, hi, cut) {
				out.cuts = append(out.cuts, cut)
			}
		}
		if sc.covered(out.cuts[from:], lo, hi) {
			out.cuts = out.cuts[:from]
			continue
		}
		out.ids = append(out.ids, id)
		out.ends = append(out.ends, int32(len(out.cuts)))
	}
}

// coverProbeDepth bounds the recursive union-coverage refinement of
// the exclusion test: a cell is also excluded when, after up to this
// many binary subdivisions, every sub-box is strictly inside some
// single cutout — catching the common case of a cell covered by the
// union of several dominance cutouts, none of which contains it alone.
const coverProbeDepth = 4

// prunableCandidate reports whether the candidate can ever be excluded
// from a cell: it must carry a relevance region with cutouts (a nil
// region means always relevant; a cutout-free region restricts only to
// the parameter space, which every served point is inside).
func prunableCandidate(c selection.Candidate) bool {
	return c.RR != nil && c.RR.NumCutouts() > 0
}

// covered reports whether cutouts, all overlapping the closed box
// [lo,hi], strictly cover the whole box. A single containing cutout
// decides immediately; otherwise the box is subdivided up to
// coverProbeDepth times and every sub-box must end up strictly inside
// some cutout (union coverage). Cutouts provably disjoint from a
// sub-box are dropped from its recursion.
func (sc *scratch) covered(cutouts []*geometry.Polytope, lo, hi geometry.Vector) bool {
	sc.lo = append(sc.lo[:0], lo...)
	sc.hi = append(sc.hi[:0], hi...)
	return sc.coveredAt(cutouts, coverProbeDepth)
}

// coveredAt is covered on the probe box sc.lo/sc.hi, which it
// subdivides in place and restores; depth subdivisions remain.
func (sc *scratch) coveredAt(cutouts []*geometry.Polytope, depth int) bool {
	lo, hi := sc.lo, sc.hi
	for _, c := range cutouts {
		if boxStrictlyInside(lo, hi, c) {
			return true
		}
	}
	if depth == 0 || len(cutouts) < 2 {
		// One overlapping cutout cannot cover a box it does not contain.
		return false
	}
	d := widest(lo, hi)
	mid := (lo[d] + hi[d]) / 2
	if !(mid > lo[d] && mid < hi[d]) {
		return false
	}
	save := hi[d]
	hi[d] = mid
	ok := sc.coveredAt(sc.overlapping(cutouts, depth-1), depth-1)
	hi[d] = save
	if !ok {
		return false
	}
	save = lo[d]
	lo[d] = mid
	ok = sc.coveredAt(sc.overlapping(cutouts, depth-1), depth-1)
	lo[d] = save
	return ok
}

// overlapping returns the cutouts not provably disjoint from the probe
// box, in the probe buffer of the given depth.
func (sc *scratch) overlapping(cutouts []*geometry.Polytope, depth int) []*geometry.Polytope {
	out := sc.probes[depth][:0]
	for _, c := range cutouts {
		if !boxDisjoint(sc.lo, sc.hi, c) {
			out = append(out, c)
		}
	}
	sc.probes[depth] = out
	return out
}

// boxStrictlyInside reports whether every point of the box satisfies
// every constraint of c with margin beyond selection.ContainsEps: the
// box maximum of each W·x (closed form over the box corners) must stay
// below B by the strict margin plus a relative term covering the
// summation error.
func boxStrictlyInside(lo, hi geometry.Vector, c *geometry.Polytope) bool {
	for _, h := range c.Constraints() {
		m := 0.0
		scale := math.Abs(h.B)
		for i, w := range h.W {
			if w > 0 {
				m += w * hi[i]
			} else {
				m += w * lo[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		if m > h.B-cellStrictEps-cellRelEps*scale {
			return false
		}
	}
	return true
}

// flatten appends the subtree rooted at bn to ix.nodes in preorder and
// returns its node id, accumulating the leaf statistics.
func (ix *Index) flatten(bn *bnode, depth int) int32 {
	id := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, node{})
	if depth > ix.maxDepth {
		ix.maxDepth = depth
	}
	if bn.left == nil {
		ix.nodes[id] = node{cands: bn.cands}
		ix.leaves++
		ix.leafCandTotal += int64(len(bn.cands))
		return id
	}
	l := ix.flatten(bn.left, depth+1)
	r := ix.flatten(bn.right, depth+1)
	ix.nodes[id] = node{dim: int32(bn.dim), split: bn.split, left: l, right: r}
	return id
}

// Dim returns the parameter-space dimension.
func (ix *Index) Dim() int { return ix.dim }

// Leaves returns the leaf count.
func (ix *Index) Leaves() int { return ix.leaves }

// MaxDepth returns the deepest leaf's depth.
func (ix *Index) MaxDepth() int { return ix.maxDepth }

// AvgLeafCandidates returns the mean candidate-id count per leaf.
func (ix *Index) AvgLeafCandidates() float64 {
	if ix.leaves == 0 {
		return 0
	}
	return float64(ix.leafCandTotal) / float64(ix.leaves)
}

// LeafCandidateTotal returns the summed candidate-id count over all
// leaves.
func (ix *Index) LeafCandidateTotal() int64 { return ix.leafCandTotal }

// BuildTime returns the wall-clock build duration (zero for indexes
// reconstructed from a snapshot).
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Locate routes x to its leaf and returns the leaf id and the ids of
// the candidates possibly relevant there. ok is false when x falls
// outside the index's padded parameter box — callers must then fall
// back to the full candidate scan.
func (ix *Index) Locate(x geometry.Vector) (leaf int32, ids []int32, ok bool) {
	if len(x) != ix.dim {
		return 0, nil, false
	}
	for i := 0; i < ix.dim; i++ {
		// Negated form so NaN coordinates fail the check and fall back
		// to the linear scan instead of descending to an arbitrary leaf.
		if !(x[i] >= ix.lo[i] && x[i] <= ix.hi[i]) {
			return 0, nil, false
		}
	}
	i := int32(0)
	for {
		n := &ix.nodes[i]
		if n.right == 0 {
			return i, n.cands, true
		}
		if x[n.dim] < n.split {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// MemBytes estimates the resident memory of the index structure: the
// preorder node array, the per-leaf candidate id lists, and the padded
// box. The serving layer's memory-accounted cache charges each plan
// set its serialized document size plus this estimate, so eviction
// decisions track what an indexed entry actually holds live.
func (ix *Index) MemBytes() int64 {
	// One node: three int32s plus padding (16), one float64 (8), one
	// slice header (24) — 48 bytes on 64-bit platforms.
	const nodeBytes = 48
	return int64(len(ix.nodes))*nodeBytes +
		ix.leafCandTotal*4 + // candidate ids (int32)
		int64(2*ix.dim)*8 // lo/hi box vectors
}
