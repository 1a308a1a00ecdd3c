package index

import (
	"encoding/binary"
	"math"
	"reflect"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/selection"
)

// LeafCandidates materializes, for every leaf id, the candidate subset
// to run the selection policies on: the leaf's candidates with their
// cost functions restricted to the pieces that may contain a point of
// the leaf cell (pwl.Restrict — dropped pieces are provably outside
// the cell beyond the evaluation tolerance, and the view falls back to
// the full scan when no hinted piece contains the point), and their
// relevance regions restricted to the cutouts and constraints that can
// decide a containment test inside the cell. Policy results through
// these subsets are byte-identical to the full linear scan. The
// returned slice is indexed by leaf id (non-leaf slots are nil).
func (ix *Index) LeafCandidates(cands []selection.Candidate) [][]selection.Candidate {
	views, _ := ix.LeafViews(cands)
	return views
}

// LeafViews is LeafCandidates plus an estimate of the bytes its result
// holds live beyond cands itself: the per-leaf slices and every
// distinct view object built for them.
//
// Neighbouring leaves mostly keep the same cutouts, constraints and
// pieces of a candidate, so each distinct restriction is built once per
// call and shared by every leaf that needs it. A restriction is named
// by index lists: the candidate, each kept cutout's position with the
// positions of its kept constraints, and each metric's kept piece
// positions. Containment views and restricted costs are shared per
// such key, trimmed cutouts per (candidate, cutout, kept constraints),
// and restricted components per (candidate, metric, kept pieces). The
// views are read-only, so sharing them cannot change a pick.
func (ix *Index) LeafViews(cands []selection.Candidate) (views [][]selection.Candidate, memBytes int64) {
	vb := &viewBuilder{
		regions: make(map[string]*region.Region),
		cutouts: make(map[string]*geometry.Polytope),
		costs:   make(map[string]*pwl.Multi),
		funcs:   make(map[string]*pwl.Function),
	}
	views = make([][]selection.Candidate, len(ix.nodes))
	vb.bytes = int64(len(views)) * sliceBytes
	ix.walkLeaves(0, ix.lo.Clone(), ix.hi.Clone(), func(leaf int32, lo, hi geometry.Vector) {
		ids := ix.nodes[leaf].cands
		sub := make([]selection.Candidate, len(ids))
		for i, id := range ids {
			c := cands[id]
			sub[i] = selection.Candidate{
				Plan: c.Plan,
				Cost: vb.cost(id, c.Cost, lo, hi),
				RR:   vb.region(id, c.RR, lo, hi),
			}
		}
		views[leaf] = sub
		vb.bytes += int64(len(sub)) * candidateBytes
	})
	return views, vb.bytes
}

// Sizes of the view objects LeafViews charges (64-bit layout).
var (
	sliceBytes     = int64(reflect.TypeFor[[]int]().Size())
	ptrBytes       = int64(reflect.TypeFor[*int]().Size())
	candidateBytes = int64(reflect.TypeFor[selection.Candidate]().Size())
	regionBytes    = int64(reflect.TypeFor[region.Region]().Size())
	polytopeBytes  = int64(reflect.TypeFor[geometry.Polytope]().Size())
	halfspaceBytes = int64(reflect.TypeFor[geometry.Halfspace]().Size())
	multiBytes     = int64(reflect.TypeFor[pwl.Multi]().Size())
	functionBytes  = int64(reflect.TypeFor[pwl.Function]().Size())
	pieceBytes     = int64(reflect.TypeFor[pwl.Piece]().Size())
)

// viewBuilder interns the restricted views of one LeafViews call.
// Keys are a uvarint candidate id followed by one segment per kept
// cutout or per metric: the position, then the kept count, then the
// kept positions unless all are kept. key, segs and kept are scratch
// reused across cells.
type viewBuilder struct {
	regions map[string]*region.Region     // (candidate, kept cutouts) → containment view
	cutouts map[string]*geometry.Polytope // (candidate, cutout segment) → trimmed cutout
	costs   map[string]*pwl.Multi         // (candidate, per-metric segments) → restricted cost
	funcs   map[string]*pwl.Function      // (candidate, metric segment) → restricted component
	bytes   int64

	key, sub []byte
	segs     []segment
	kept     []int
}

// segment locates one cutout's or metric's part of the current key and
// its kept positions in viewBuilder.kept.
type segment struct {
	pos            int
	keyLo, keyHi   int
	keptLo, keptHi int
	total          int
}

func (s segment) all() bool { return s.keptHi-s.keptLo == s.total }

// appendSegment records the kept positions kept[keptLo:] of item pos
// (out of total) as the next segment of the key.
func (vb *viewBuilder) appendSegment(pos, keptLo, total int) {
	lo := len(vb.key)
	n := len(vb.kept) - keptLo
	vb.key = binary.AppendUvarint(vb.key, uint64(pos))
	vb.key = binary.AppendUvarint(vb.key, uint64(n))
	if n < total {
		for _, k := range vb.kept[keptLo:] {
			vb.key = binary.AppendUvarint(vb.key, uint64(k))
		}
	}
	vb.segs = append(vb.segs, segment{pos: pos, keyLo: lo, keyHi: len(vb.key), keptLo: keptLo, keptHi: len(vb.kept), total: total})
}

// start resets the scratch for a new key of candidate id.
func (vb *viewBuilder) start(id int32) {
	vb.key = binary.AppendUvarint(vb.key[:0], uint64(id))
	vb.segs = vb.segs[:0]
	vb.kept = vb.kept[:0]
}

// subKey returns the key of one segment on its own: the candidate id
// prefix (of length idLen) followed by the segment.
func (vb *viewBuilder) subKey(idLen int, s segment) []byte {
	vb.sub = append(append(vb.sub[:0], vb.key[:idLen]...), vb.key[s.keyLo:s.keyHi]...)
	return vb.sub
}

// region returns the candidate's relevance region restricted to the
// cutouts that can decide a containment test inside the cell, each
// trimmed to its undecided constraints. With no such cutout the
// candidate is always relevant in the cell (every served point is
// inside the space) and the result is nil — selection's fast path
// skips the test entirely. Otherwise the view drops the per-candidate
// space test (served points are validated in-space before selection).
func (vb *viewBuilder) region(id int32, rr *region.Region, lo, hi geometry.Vector) *region.Region {
	if rr == nil {
		return nil
	}
	vb.start(id)
	idLen := len(vb.key)
	cutouts := rr.Cutouts()
	for j, cut := range cutouts {
		keptLo := len(vb.kept)
		var decidable bool
		vb.kept, decidable = keptConstraints(cut, lo, hi, vb.kept)
		if !decidable {
			vb.kept = vb.kept[:keptLo]
			continue
		}
		vb.appendSegment(j, keptLo, len(cut.Constraints()))
	}
	if len(vb.segs) == 0 {
		return nil
	}
	if v, ok := vb.regions[string(vb.key)]; ok {
		return v
	}
	kept := make([]*geometry.Polytope, len(vb.segs))
	for i, s := range vb.segs {
		kept[i] = vb.trimmed(idLen, s, cutouts[s.pos])
	}
	v := rr.ContainmentView(kept)
	vb.regions[string(vb.key)] = v
	vb.bytes += regionBytes + int64(len(kept))*ptrBytes
	return v
}

// trimmed returns the cutout restricted to the segment's kept
// constraints: the cutout itself when all are kept, otherwise a shared
// polytope per (candidate, cutout, kept constraints).
func (vb *viewBuilder) trimmed(idLen int, s segment, cut *geometry.Polytope) *geometry.Polytope {
	if s.all() {
		return cut
	}
	key := vb.subKey(idLen, s)
	if p, ok := vb.cutouts[string(key)]; ok {
		return p
	}
	hs := cut.Constraints()
	kept := make([]geometry.Halfspace, 0, s.keptHi-s.keptLo)
	for _, k := range vb.kept[s.keptLo:s.keptHi] {
		kept = append(kept, hs[k])
	}
	p := geometry.NewPolytope(cut.Dim(), kept...)
	vb.cutouts[string(key)] = p
	vb.bytes += polytopeBytes + int64(len(p.Constraints()))*halfspaceBytes
	return p
}

// cost returns the candidate's cost function with each component
// restricted to the pieces that may contain a point of the cell; m
// itself when no component drops a piece.
func (vb *viewBuilder) cost(id int32, m *pwl.Multi, lo, hi geometry.Vector) *pwl.Multi {
	vb.start(id)
	idLen := len(vb.key)
	changed := false
	for k := 0; k < m.NumMetrics(); k++ {
		pieces := m.Component(k).Pieces()
		keptLo := len(vb.kept)
		for i := range pieces {
			if !pieceExcluded(&pieces[i], lo, hi) {
				vb.kept = append(vb.kept, i)
			}
		}
		vb.appendSegment(k, keptLo, len(pieces))
		changed = changed || !vb.segs[k].all()
	}
	if !changed {
		return m
	}
	if v, ok := vb.costs[string(vb.key)]; ok {
		return v
	}
	comps := make([]*pwl.Function, len(vb.segs))
	for k, s := range vb.segs {
		comps[k] = vb.restricted(idLen, s, m.Component(k))
	}
	v := pwl.NewMulti(comps...)
	vb.costs[string(vb.key)] = v
	vb.bytes += multiBytes + int64(len(comps))*ptrBytes
	return v
}

// restricted returns the component restricted to the segment's kept
// pieces: the component itself when all are kept, otherwise a shared
// pwl.Restrict view per (candidate, metric, kept pieces).
func (vb *viewBuilder) restricted(idLen int, s segment, f *pwl.Function) *pwl.Function {
	if s.all() {
		return f
	}
	key := vb.subKey(idLen, s)
	if r, ok := vb.funcs[string(key)]; ok {
		return r
	}
	r := f.Restrict(vb.kept[s.keptLo:s.keptHi])
	vb.funcs[string(key)] = r
	vb.bytes += functionBytes + int64(r.NumPieces())*pieceBytes
	return r
}

// walkLeaves visits every leaf with its cell box. The boxes are
// recomputed from the splits, so lo/hi are scratch and mutated in
// place.
func (ix *Index) walkLeaves(i int32, lo, hi geometry.Vector, fn func(leaf int32, lo, hi geometry.Vector)) {
	n := &ix.nodes[i]
	if n.right == 0 {
		fn(i, lo, hi)
		return
	}
	d := n.dim
	save := hi[d]
	hi[d] = n.split
	ix.walkLeaves(n.left, lo, hi, fn)
	hi[d] = save
	save = lo[d]
	lo[d] = n.split
	ix.walkLeaves(n.right, lo, hi, fn)
	lo[d] = save
}

// keptConstraints appends to kept the positions of the cutout's
// constraints still undecided in the cell. decidable is false when the
// cutout provably cannot decide a containment test anywhere in the
// cell: some constraint's box minimum already exceeds its bound by
// more than the strict containment tolerance, so no cell point is
// strictly inside the cutout and dropping it from the scan cannot
// change any Contains outcome. Constraints *strictly satisfied*
// everywhere in the cell (box maximum below the bound by more than the
// tolerance) can never flip a cell point's containment test to false
// and are not kept; at least one constraint always survives (a cutout
// with every constraint strictly satisfied contains the cell, so the
// candidate was excluded during the build).
func keptConstraints(c *geometry.Polytope, lo, hi geometry.Vector, kept []int) (_ []int, decidable bool) {
	for k, h := range c.Constraints() {
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
			return kept, false // violated everywhere: cutout undecidable
		}
		if mx <= h.B-margin {
			continue // satisfied everywhere: constraint never decides
		}
		kept = append(kept, k)
	}
	return kept, true
}

// pieceExcluded reports whether the piece's region provably excludes
// the whole cell: some normalized constraint is violated by more than
// pwl's evaluation tolerance at every point of the box (the box
// minimum of the normalized W·x stays above B by the strict margin).
func pieceExcluded(p *pwl.Piece, lo, hi geometry.Vector) bool {
	for _, h := range p.Region.Constraints() {
		nrm := h.W.NormInf()
		if nrm < 1e-300 {
			continue
		}
		s := 1 / nrm
		mn := 0.0
		scale := math.Abs(h.B) * s
		for i, w := range h.W {
			w *= s
			if w > 0 {
				mn += w * lo[i]
			} else {
				mn += w * hi[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		if mn-h.B*s > cellStrictEps+cellRelEps*scale {
			return true
		}
	}
	return false
}
