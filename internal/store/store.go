// Package store serializes Pareto plan sets so that the MPQ workflow of
// the paper's Figure 2 can span processes: plans are computed once per
// query template at preprocessing time, persisted, and loaded at run
// time where a plan is selected for concrete parameter values — without
// re-running the optimizer (the classical use case of parametric query
// optimization for embedded SQL).
//
// The format is versioned JSON: operator trees, piecewise-linear cost
// functions (weights, bases, and region constraint systems per piece)
// and the relevance-region cutouts are stored explicitly.
package store

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/plan"
	"mpq/internal/pwl"
	"mpq/internal/region"
)

// FormatVersion identifies the serialization layout. Version 4 added
// the epsilon stanza recording the approximation factor of an
// ε-approximate plan set (SaveIndexedEpsilon); version 3 added the
// optional point-location pick-index stanza (SaveIndexed) to version
// 2's region-options stanza and explicit always-relevant marker. Load
// rejects versions 1 and 2: serving keys bind core.Revision, so no
// current key addresses a document that old, and re-preparing the
// template rewrites it in the current layout.
//
// Exact plan sets (epsilon 0) are still written as version 3 — byte
// for byte the historical output — so the version number itself
// certifies the tier: a version 4 document is an ε-approximate set and
// must say so, an exact set has exactly one canonical serialized form.
const FormatVersion = 4

// formatVersionExact is the version written for exact (epsilon 0)
// plan sets: the canonical pre-epsilon layout.
const formatVersionExact = 3

// Document is the top-level serialized form of an optimization result.
type Document struct {
	Version int `json:"version"`
	// Epsilon is the multiplicative approximation factor the plan set
	// was computed with (core.Options.Epsilon). Present exactly when
	// nonzero, which is exactly when Version >= 4: loading an
	// ε-approximate set as if it were exact (or vice versa) is a format
	// error, not a silent wrong answer.
	Epsilon float64    `json:"epsilon,omitempty"`
	Metrics []string   `json:"metrics"`
	Space   polytopeJS `json:"space"`
	// RegionOptions records the Section 6.2 refinement configuration the
	// relevance regions were built with, so Load rebuilds them with the
	// same options instead of whatever the current defaults happen to
	// be. Every save writes it; Load rejects a document without it.
	RegionOptions *regionOptionsJS `json:"region_options,omitempty"`
	Plans         []planEnt        `json:"plans"`
	// Index is the optional point-location pick index over the plan
	// set's parameter space (version 3). Absent when the set was saved
	// without one; loaders that want an index rebuild it from the plans.
	Index *index.Snapshot `json:"index,omitempty"`
}

type planEnt struct {
	Tree nodeJS  `json:"tree"`
	Cost multiJS `json:"cost"`
	// AlwaysRelevant marks a plan whose relevance region was nil at save
	// time: selection must keep considering it at every parameter point
	// without any containment test. Distinct from a region with zero
	// cutouts, which still restricts the plan to the parameter space.
	AlwaysRelevant bool         `json:"always_relevant,omitempty"`
	Cutouts        []polytopeJS `json:"cutouts,omitempty"`
}

type regionOptionsJS struct {
	Strategy                  string `json:"strategy"`
	RelevancePoints           int    `json:"relevance_points"`
	EliminateRedundantCutouts bool   `json:"eliminate_redundant_cutouts"`
}

func regionOptionsToJS(o region.Options) *regionOptionsJS {
	return &regionOptionsJS{
		Strategy:                  o.Strategy.String(),
		RelevancePoints:           o.RelevancePoints,
		EliminateRedundantCutouts: o.EliminateRedundantCutouts,
	}
}

func regionOptionsFromJS(j *regionOptionsJS) (region.Options, error) {
	if j == nil {
		return region.Options{}, fmt.Errorf("store: document without region options")
	}
	strategy, err := region.ParseStrategy(j.Strategy)
	if err != nil {
		return region.Options{}, fmt.Errorf("store: region options: %w", err)
	}
	return region.Options{
		Strategy:                  strategy,
		RelevancePoints:           j.RelevancePoints,
		EliminateRedundantCutouts: j.EliminateRedundantCutouts,
	}, nil
}

type nodeJS struct {
	Op    string  `json:"op"`
	Table *int    `json:"table,omitempty"`
	Left  *nodeJS `json:"left,omitempty"`
	Right *nodeJS `json:"right,omitempty"`
}

type multiJS struct {
	Components []functionJS `json:"components"`
}

type functionJS struct {
	Pieces []pieceJS `json:"pieces"`
}

type pieceJS struct {
	Region polytopeJS `json:"region"`
	W      []float64  `json:"w"`
	B      float64    `json:"b"`
}

type polytopeJS struct {
	Dim         int           `json:"dim"`
	Constraints []halfspaceJS `json:"constraints"`
}

type halfspaceJS struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

// Save writes the plan set of a result (plans, PWL costs, relevance
// regions) to w. Only results produced with the PWL algebra can be
// serialized. The region options of the first plan with a relevance
// region are persisted alongside the regions (all regions of one
// optimizer run share their options), so Load rebuilds regions exactly
// as they were configured at save time.
func Save(w io.Writer, metrics []string, space *geometry.Polytope, plans []*core.PlanInfo) error {
	return SaveIndexed(w, metrics, space, plans, nil)
}

// SaveIndexed is Save with an optional point-location pick index built
// over the same plan order (nil saves no index stanza). The index's
// leaf candidate ids refer to positions in plans; Load returns the
// reconstructed index alongside the plan set.
func SaveIndexed(w io.Writer, metrics []string, space *geometry.Polytope, plans []*core.PlanInfo, ix *index.Index) error {
	return SaveIndexedEpsilon(w, metrics, space, plans, ix, 0)
}

// SaveIndexedEpsilon is SaveIndexed for ε-approximate plan sets: the
// document records the approximation factor the optimizer ran with, so
// loaders can tell tiers apart. Epsilon 0 writes the canonical exact
// form (version 3, byte-identical to SaveIndexed); epsilon > 0 writes
// a version 4 document.
func SaveIndexedEpsilon(w io.Writer, metrics []string, space *geometry.Polytope, plans []*core.PlanInfo, ix *index.Index, epsilon float64) error {
	if epsilon < 0 || math.IsNaN(epsilon) {
		return fmt.Errorf("store: invalid epsilon %v", epsilon)
	}
	version := FormatVersion
	if epsilon == 0 {
		version = formatVersionExact
	}
	doc := Document{
		Version: version,
		Epsilon: epsilon,
		Metrics: metrics,
		Space:   polytopeToJS(space),
	}
	for _, info := range plans {
		cost, ok := info.Cost.(*pwl.Multi)
		if !ok {
			return fmt.Errorf("store: cost of plan %v is %T, want *pwl.Multi", info.Plan, info.Cost)
		}
		ent := planEnt{
			Tree: nodeToJS(info.Plan),
			Cost: multiToJS(cost),
		}
		if info.RR == nil {
			ent.AlwaysRelevant = true
		} else {
			if doc.RegionOptions == nil {
				doc.RegionOptions = regionOptionsToJS(info.RR.Options())
			}
			for _, c := range info.RR.Cutouts() {
				ent.Cutouts = append(ent.Cutouts, polytopeToJS(c))
			}
		}
		doc.Plans = append(doc.Plans, ent)
	}
	if doc.RegionOptions == nil {
		// No plan carried a region; record the defaults so a future
		// default change cannot silently alter reload semantics.
		doc.RegionOptions = regionOptionsToJS(region.DefaultOptions())
	}
	if ix != nil {
		if ix.Dim() != space.Dim() {
			return fmt.Errorf("store: index dimension %d, want space dimension %d", ix.Dim(), space.Dim())
		}
		doc.Index = ix.Snapshot()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// LoadedPlan is a deserialized plan with its cost function and
// relevance region.
type LoadedPlan struct {
	Plan *plan.Node
	Cost *pwl.Multi
	RR   *region.Region
}

// PlanSet is a deserialized plan set ready for run-time selection.
type PlanSet struct {
	Metrics []string
	Space   *geometry.Polytope
	// Epsilon is the approximation factor the set was computed with: 0
	// for an exact Pareto set, ε > 0 for an ε-approximate frontier
	// whose picks are within a multiplicative (1+ε) of optimal on every
	// metric. Callers serving multiple precision tiers key their caches
	// on it.
	Epsilon float64
	Plans   []LoadedPlan
	// Index is the point-location pick index persisted with the set,
	// or nil when the set was saved without one. Its leaf candidate ids
	// index Plans.
	Index *index.Index
}

// Load reads a serialized plan set.
func Load(r io.Reader) (*PlanSet, error) {
	var doc Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: decoding: %w", err)
	}
	if doc.Version < formatVersionExact {
		return nil, fmt.Errorf("store: format version %d is no longer supported (oldest readable is %d); re-preparing the template rewrites the document", doc.Version, formatVersionExact)
	}
	if doc.Version > FormatVersion {
		return nil, fmt.Errorf("store: unsupported format version %d", doc.Version)
	}
	// The version number and the epsilon stanza certify each other: a
	// pre-v4 document cannot carry an epsilon, and a v4 document must —
	// the canonical form of an exact set is version 3. A mismatch means
	// the document was tampered with or corrupted, and trusting either
	// half could serve approximate plans as exact.
	if doc.Epsilon < 0 || math.IsNaN(doc.Epsilon) {
		return nil, fmt.Errorf("store: invalid epsilon %v", doc.Epsilon)
	}
	if doc.Version < FormatVersion && doc.Epsilon != 0 {
		return nil, fmt.Errorf("store: version %d document carries epsilon %v (epsilon requires version %d)", doc.Version, doc.Epsilon, FormatVersion)
	}
	if doc.Version == FormatVersion && doc.Epsilon == 0 {
		return nil, fmt.Errorf("store: version %d document without epsilon (canonical exact form is version %d)", FormatVersion, formatVersionExact)
	}
	if len(doc.Metrics) == 0 {
		return nil, fmt.Errorf("store: document without metrics")
	}
	space, err := polytopeFromJS(doc.Space)
	if err != nil {
		return nil, err
	}
	regionOpts, err := regionOptionsFromJS(doc.RegionOptions)
	if err != nil {
		return nil, err
	}
	ps := &PlanSet{Metrics: doc.Metrics, Space: space, Epsilon: doc.Epsilon}
	ctx := geometry.NewSolver(geometry.Config{})
	for i, ent := range doc.Plans {
		node, err := nodeFromJS(&ent.Tree)
		if err != nil {
			return nil, fmt.Errorf("store: plan %d: %w", i, err)
		}
		cost, err := multiFromJS(ent.Cost, len(doc.Metrics), space.Dim())
		if err != nil {
			return nil, fmt.Errorf("store: plan %d: %w", i, err)
		}
		lp := LoadedPlan{Plan: node, Cost: cost}
		// A nil relevance region ("always relevant") must survive the
		// round trip: selection's documented fast path skips all
		// containment work for it.
		if ent.AlwaysRelevant {
			if len(ent.Cutouts) > 0 {
				return nil, fmt.Errorf("store: plan %d is marked always-relevant but has %d cutouts", i, len(ent.Cutouts))
			}
		} else {
			rr := region.New(ctx, space, regionOpts)
			for _, cj := range ent.Cutouts {
				if cj.Dim != space.Dim() {
					return nil, fmt.Errorf("store: plan %d cutout: dimension %d, want space dimension %d", i, cj.Dim, space.Dim())
				}
				c, err := polytopeFromJS(cj)
				if err != nil {
					return nil, fmt.Errorf("store: plan %d cutout: %w", i, err)
				}
				rr.Subtract(ctx, c)
			}
			lp.RR = rr
		}
		ps.Plans = append(ps.Plans, lp)
	}
	if doc.Index != nil {
		ix, err := index.FromSnapshot(doc.Index, len(ps.Plans), space.Dim())
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		ps.Index = ix
	}
	return ps, nil
}

func nodeToJS(n *plan.Node) nodeJS {
	if n.IsScan() {
		tbl := int(n.Table)
		return nodeJS{Op: n.Op, Table: &tbl}
	}
	l := nodeToJS(n.Left)
	r := nodeToJS(n.Right)
	return nodeJS{Op: n.Op, Left: &l, Right: &r}
}

func nodeFromJS(j *nodeJS) (*plan.Node, error) {
	if j.Table != nil {
		if j.Left != nil || j.Right != nil {
			return nil, fmt.Errorf("scan node with children")
		}
		return plan.Scan(catalog.TableID(*j.Table), j.Op), nil
	}
	if j.Left == nil || j.Right == nil {
		return nil, fmt.Errorf("join node missing children")
	}
	l, err := nodeFromJS(j.Left)
	if err != nil {
		return nil, err
	}
	r, err := nodeFromJS(j.Right)
	if err != nil {
		return nil, err
	}
	if !l.Set.Intersect(r.Set).IsEmpty() {
		return nil, fmt.Errorf("join children overlap")
	}
	return plan.Join(j.Op, l, r), nil
}

func multiToJS(m *pwl.Multi) multiJS {
	out := multiJS{}
	for i := 0; i < m.NumMetrics(); i++ {
		f := m.Component(i)
		fj := functionJS{}
		for _, p := range f.Pieces() {
			fj.Pieces = append(fj.Pieces, pieceJS{
				Region: polytopeToJS(p.Region),
				W:      append([]float64(nil), p.W...),
				B:      p.B,
			})
		}
		out.Components = append(out.Components, fj)
	}
	return out
}

func multiFromJS(j multiJS, metrics, dim int) (*pwl.Multi, error) {
	if len(j.Components) != metrics {
		return nil, fmt.Errorf("cost with %d components, want %d", len(j.Components), metrics)
	}
	comps := make([]*pwl.Function, metrics)
	for i, fj := range j.Components {
		if len(fj.Pieces) == 0 {
			return nil, fmt.Errorf("component %d has no pieces", i)
		}
		pieces := make([]pwl.Piece, 0, len(fj.Pieces))
		for _, pj := range fj.Pieces {
			if len(pj.W) != dim {
				return nil, fmt.Errorf("piece weight dimension %d, want %d", len(pj.W), dim)
			}
			if pj.Region.Dim != dim {
				// An internally consistent polytope of the wrong
				// dimension would pass construction and panic deep in
				// the geometry layer at selection time; reject it here.
				return nil, fmt.Errorf("piece region dimension %d, want space dimension %d", pj.Region.Dim, dim)
			}
			reg, err := polytopeFromJS(pj.Region)
			if err != nil {
				return nil, err
			}
			pieces = append(pieces, pwl.Piece{
				Region: reg,
				W:      geometry.Vector(append([]float64(nil), pj.W...)),
				B:      pj.B,
			})
		}
		comps[i] = pwl.NewFunction(pieces...)
	}
	return pwl.NewMulti(comps...), nil
}

func polytopeToJS(p *geometry.Polytope) polytopeJS {
	out := polytopeJS{Dim: p.Dim()}
	for _, h := range p.Constraints() {
		out.Constraints = append(out.Constraints, halfspaceJS{
			W: append([]float64(nil), h.W...),
			B: h.B,
		})
	}
	return out
}

func polytopeFromJS(j polytopeJS) (*geometry.Polytope, error) {
	if j.Dim <= 0 {
		return nil, fmt.Errorf("polytope with dimension %d", j.Dim)
	}
	hs := make([]geometry.Halfspace, 0, len(j.Constraints))
	for _, hj := range j.Constraints {
		if len(hj.W) != j.Dim {
			return nil, fmt.Errorf("constraint dimension %d, want %d", len(hj.W), j.Dim)
		}
		hs = append(hs, geometry.Halfspace{
			W: geometry.Vector(append([]float64(nil), hj.W...)),
			B: hj.B,
		})
	}
	return geometry.NewPolytope(j.Dim, hs...), nil
}
