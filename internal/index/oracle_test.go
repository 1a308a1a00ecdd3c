package index

import (
	"math"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/selection"
)

// The per-leaf restriction LeafViews replaced, kept as the oracle its
// shared views must equal: restrictCandidate builds a fresh restricted
// copy of one candidate for one cell.

// restrictCandidate returns the candidate with each cost component
// restricted to the pieces that may contain a point of the cell, and
// its relevance region restricted to the cutouts that can decide a
// containment test inside the cell.
func restrictCandidate(c selection.Candidate, lo, hi geometry.Vector) selection.Candidate {
	if c.RR != nil {
		cutouts := c.RR.Cutouts()
		kept := make([]*geometry.Polytope, 0, len(cutouts))
		for _, cut := range cutouts {
			if trimmed, decidable := trimCutout(cut, lo, hi); decidable {
				kept = append(kept, trimmed)
			}
		}
		if len(kept) == 0 {
			// No cutout can decide containment in this cell, and every
			// served point is inside the space: the candidate is always
			// relevant here — selection's nil fast path skips the test
			// entirely.
			c.RR = nil
		} else {
			// The view drops the per-candidate space test (served points
			// are validated in-space before selection) and scans only the
			// kept cutouts with their undecided constraints.
			c.RR = c.RR.ContainmentView(kept)
		}
	}
	m := c.Cost
	comps := make([]*pwl.Function, m.NumMetrics())
	changed := false
	for k := 0; k < m.NumMetrics(); k++ {
		f := m.Component(k)
		pieces := f.Pieces()
		keep := make([]int, 0, len(pieces))
		for i := range pieces {
			if !pieceExcluded(&pieces[i], lo, hi) {
				keep = append(keep, i)
			}
		}
		if len(keep) < len(pieces) {
			comps[k] = f.Restrict(keep)
			changed = true
		} else {
			comps[k] = f
		}
	}
	if changed {
		c.Cost = pwl.NewMulti(comps...)
	}
	return c
}

// trimCutout restricts a cutout to the constraints still undecided in
// the cell. decidable is false when the cutout provably cannot decide
// a containment test anywhere in the cell: some constraint's box
// minimum already exceeds its bound by more than the strict
// containment tolerance, so no cell point is strictly inside the
// cutout and dropping it from the scan cannot change any Contains
// outcome. Constraints *strictly satisfied* everywhere in the cell
// (box maximum below the bound by more than the tolerance) can never
// flip a cell point's containment test to false and are dropped from
// the kept cutout; at least one constraint always survives (a cutout
// with every constraint strictly satisfied contains the cell, so the
// candidate was excluded during the build).
func trimCutout(c *geometry.Polytope, lo, hi geometry.Vector) (trimmed *geometry.Polytope, decidable bool) {
	hs := c.Constraints()
	kept := make([]geometry.Halfspace, 0, len(hs))
	for _, h := range hs {
		mn, mx := 0.0, 0.0
		scale := math.Abs(h.B)
		for i, w := range h.W {
			if w > 0 {
				mn += w * lo[i]
				mx += w * hi[i]
			} else {
				mn += w * hi[i]
				mx += w * lo[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		margin := cellStrictEps + cellRelEps*scale
		if mn-h.B > margin {
			return nil, false // violated everywhere: cutout undecidable
		}
		if mx <= h.B-margin {
			continue // satisfied everywhere: constraint never decides
		}
		kept = append(kept, h)
	}
	if len(kept) == len(hs) {
		return c, true
	}
	return geometry.NewPolytope(c.Dim(), kept...), true
}

// OracleLeafViews restricts every leaf's candidates with
// restrictCandidate, indexed like LeafCandidates.
func (ix *Index) OracleLeafViews(cands []selection.Candidate) [][]selection.Candidate {
	out := make([][]selection.Candidate, len(ix.nodes))
	ix.walkLeaves(0, ix.lo.Clone(), ix.hi.Clone(), func(leaf int32, lo, hi geometry.Vector) {
		ids := ix.nodes[leaf].cands
		sub := make([]selection.Candidate, len(ids))
		for i, id := range ids {
			sub[i] = restrictCandidate(cands[id], lo, hi)
		}
		out[leaf] = sub
	})
	return out
}

// The index build before cells inherited their parent's overlapping
// cutouts, kept as the oracle the build's snapshots must equal: every
// cell rescans every cutout of every kept candidate.

// RescanSnapshot rebuilds ix's tree over the same padded box and
// options with the full-rescan build and returns its snapshot.
func RescanSnapshot(ix *Index, cands []selection.Candidate) *Snapshot {
	r := &rescanBuilder{cands: cands, opts: ix.opts}
	ids := make([]int32, len(cands))
	for i := range ids {
		ids[i] = int32(i)
	}
	o := &Index{dim: ix.dim, lo: ix.lo, hi: ix.hi, opts: ix.opts}
	o.flatten(r.build(ix.lo.Clone(), ix.hi.Clone(), ids, 0, ix.opts.MaxLeaves), 0)
	return o.Snapshot()
}

type rescanBuilder struct {
	cands []selection.Candidate
	opts  Options
}

func (r *rescanBuilder) build(lo, hi geometry.Vector, ids []int32, depth, budget int) *bnode {
	prunable := 0
	for _, id := range ids {
		if prunableCandidate(r.cands[id]) {
			prunable++
		}
	}
	if prunable <= r.opts.LeafTarget || depth >= r.opts.MaxDepth ||
		budget < 2 || !r.refinable(lo, hi, ids) {
		return &bnode{cands: ids}
	}
	d := 0
	for i := 1; i < len(lo); i++ {
		if hi[i]-lo[i] > hi[d]-lo[d] {
			d = i
		}
	}
	split := (lo[d] + hi[d]) / 2
	if !(split > lo[d] && split < hi[d]) {
		return &bnode{cands: ids}
	}
	leftHi := hi.Clone()
	leftHi[d] = split
	rightLo := lo.Clone()
	rightLo[d] = split
	lb := (budget + 1) / 2
	return &bnode{dim: d, split: split,
		left:  r.build(lo, leftHi, r.filter(lo, leftHi, ids), depth+1, lb),
		right: r.build(rightLo, hi, r.filter(rightLo, hi, ids), depth+1, budget-lb),
	}
}

func (r *rescanBuilder) refinable(lo, hi geometry.Vector, ids []int32) bool {
	for _, id := range ids {
		c := r.cands[id]
		if !prunableCandidate(c) {
			continue
		}
		for _, cut := range c.RR.Cutouts() {
			if !boxDisjoint(lo, hi, cut) {
				return true
			}
		}
	}
	return false
}

func (r *rescanBuilder) filter(lo, hi geometry.Vector, ids []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		c := r.cands[id]
		if prunableCandidate(c) && rescanCovers(c.RR.Cutouts(), lo, hi, coverProbeDepth) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func rescanCovers(cutouts []*geometry.Polytope, lo, hi geometry.Vector, depth int) bool {
	overlapping := 0
	for _, c := range cutouts {
		if boxStrictlyInside(lo, hi, c) {
			return true
		}
		if !boxDisjoint(lo, hi, c) {
			overlapping++
		}
	}
	if depth == 0 || overlapping < 2 {
		return false
	}
	rest := make([]*geometry.Polytope, 0, overlapping)
	for _, c := range cutouts {
		if !boxDisjoint(lo, hi, c) {
			rest = append(rest, c)
		}
	}
	d := 0
	for i := 1; i < len(lo); i++ {
		if hi[i]-lo[i] > hi[d]-lo[d] {
			d = i
		}
	}
	mid := (lo[d] + hi[d]) / 2
	if !(mid > lo[d] && mid < hi[d]) {
		return false
	}
	leftHi := hi.Clone()
	leftHi[d] = mid
	if !rescanCovers(rest, lo, leftHi, depth-1) {
		return false
	}
	rightLo := lo.Clone()
	rightLo[d] = mid
	return rescanCovers(rest, rightLo, hi, depth-1)
}
