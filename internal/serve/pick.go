package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/plan"
	"mpq/internal/selection"
	"mpq/internal/store"
)

// Policy selects the run-time preference policy of a Pick request.
type Policy string

// The selection policies of the paper's scenarios.
const (
	// PolicyFrontier returns every Pareto-optimal choice at the point,
	// sorted lexicographically by cost (the tradeoff visualization of
	// Scenario 1).
	PolicyFrontier Policy = "frontier"
	// PolicyWeightedSum minimizes Weights·cost.
	PolicyWeightedSum Policy = "weighted"
	// PolicyMinimizeSubjectTo minimizes metric Minimize under Bounds.
	PolicyMinimizeSubjectTo Policy = "bound"
	// PolicyLexicographic minimizes metrics in Order priority.
	PolicyLexicographic Policy = "lex"
)

// PickRequest selects a plan from a prepared plan set at a parameter
// point.
type PickRequest struct {
	// Key is the plan-set key returned by Prepare.
	Key string
	// Point is the concrete parameter vector.
	Point geometry.Vector
	// Policy selects the preference policy; the zero value means
	// PolicyFrontier.
	Policy Policy
	// Weights configures PolicyWeightedSum.
	Weights []float64
	// Minimize and Bounds configure PolicyMinimizeSubjectTo.
	Minimize int
	Bounds   []selection.Bound
	// Order configures PolicyLexicographic.
	Order []int
}

// PickResult is the selected plan (or, for PolicyFrontier, every
// Pareto-optimal plan) with cost vectors at the requested point.
type PickResult struct {
	// Metrics names the cost components.
	Metrics []string
	// Choices holds the selected plans; exactly one for the
	// single-plan policies.
	Choices []selection.Choice
	// Epsilon is the approximation factor of the plan set the pick was
	// served from.
	Epsilon float64

	texts planTexts
}

// PlanJSON returns a chosen plan's text JSON-quoted — the bytes
// json.Marshal(n.String()) produces — pre-rendered once per resident
// plan set. The caller must not modify them.
func (r PickResult) PlanJSON(n *plan.Node) []byte { return r.texts.quoted(n) }

// planTexts maps each plan of a resident plan set to its JSON-quoted
// text, rendered once when the entry is built so picks never render
// plans. Read-only after construction.
type planTexts map[*plan.Node][]byte

// quoted returns n's pre-rendered text, or renders it for a node the
// plan set does not hold.
func (t planTexts) quoted(n *plan.Node) []byte {
	if b, ok := t[n]; ok {
		return b
	}
	return quotePlan(n)
}

// quotePlan renders n's text through encoding/json, so its escaping
// (HTML characters included) is exactly the transport's.
func quotePlan(n *plan.Node) []byte {
	b, _ := json.Marshal(n.String()) // a string always marshals
	return b
}

// entry is a cached plan set with its precomputed selection
// candidates. On fleet-configured servers (CacheBytes, Shared, or
// Peers set) doc is the exact serialized document the entry
// round-tripped through — served verbatim to peers and the basis of
// the accounted footprint; plain in-memory servers drop it after
// deserializing, keeping the historical memory profile. With the pick
// index enabled, idx is the point-location index and leafCands the
// per-leaf candidate subsets (shared restricted views) Picks scan
// instead of candidates; viewBytes estimates what those views hold.
type entry struct {
	set        *store.PlanSet
	doc        []byte
	candidates []selection.Candidate
	texts      planTexts
	idx        *index.Index
	leafCands  [][]selection.Candidate
	viewBytes  int64
}

// footprint is the bytes the memory-accounted cache charges for the
// entry: the serialized document, the pick index structure, and the
// per-leaf views (their slices and every distinct restricted region,
// cutout, cost and component, index.LeafViews' estimate). The document
// stands in for the deserialized plan set, which the views point into
// but do not copy.
func (e *entry) footprint() int64 {
	b := int64(len(e.doc))
	if e.idx != nil {
		b += e.idx.MemBytes() + e.viewBytes
	}
	return b
}

// lookup resolves the candidate subset for a pick point: the leaf cell
// of the index when available, the full linear-scan set otherwise.
func (e *entry) lookup(x geometry.Vector) (cands []selection.Candidate, viaIndex bool) {
	if e.idx != nil {
		if leaf, _, ok := e.idx.Locate(x); ok {
			return e.leafCands[leaf], true
		}
	}
	return e.candidates, false
}

// Pick evaluates a selection policy at a parameter point against a
// prepared plan set. ctx cancels or deadline-bounds the request: a Pick
// whose ctx is done never starts, and neither does one abandoned while
// queued for a reload.
func (s *Server) Pick(ctx context.Context, req PickRequest) (PickResult, error) {
	return pickOn(ctx, s, req.Key, func(e *entry) (PickResult, error) {
		return s.pickEntry(e, req)
	})
}

// pickOn runs one pick-shaped request against key's entry and counts a
// failure on its context once, at the API boundary. A resident entry is
// pinned and picked on the caller's goroutine: selection on the
// immutable entry needs no solver, so it never waits in the queue
// behind optimizer work. Only an entry that must be reloaded (decoded,
// perhaps indexed) takes a pool worker, through the reload
// singleflight.
func pickOn[R any](ctx context.Context, s *Server, key string, on func(e *entry) (R, error)) (R, error) {
	ctx = orBackground(ctx)
	var res R
	err := s.accepting(ctx)
	if err == nil {
		if v, ok := s.cache.Get(key, true); ok {
			func() {
				defer s.cache.Unpin(key)
				res, err = on(v.(*entry))
			}()
		} else {
			var jerr error
			err = s.run(ctx, func(w *worker) {
				e, release, rerr := s.reload(ctx, key, w)
				if rerr != nil {
					jerr = rerr
					return
				}
				defer release()
				res, jerr = on(e)
			})
			if err == nil {
				err = jerr
			}
		}
	}
	if err != nil {
		// res is the zero value here: either the pick never ran, or it
		// failed and returned none.
		s.noteCtxFailure(err)
	}
	return res, err
}

// accepting reports why a request may not start: the server is closed,
// or ctx is already done.
func (s *Server) accepting(ctx context.Context) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrServerClosed
	}
	return ctx.Err()
}

// PickBatchRequest evaluates one selection policy at many parameter
// points against one prepared plan set — the high-pick-rate interface
// the pick index is built for. The policy fields mirror PickRequest.
type PickBatchRequest struct {
	// Key is the plan-set key returned by Prepare.
	Key string
	// Points are the parameter vectors to pick for, answered in order.
	Points []geometry.Vector
	// Policy selects the preference policy; the zero value means
	// PolicyFrontier.
	Policy Policy
	// Weights configures PolicyWeightedSum.
	Weights []float64
	// Minimize and Bounds configure PolicyMinimizeSubjectTo.
	Minimize int
	Bounds   []selection.Bound
	// Order configures PolicyLexicographic.
	Order []int
}

// PickBatchResult answers a PickBatchRequest: Choices[i] are the
// selected plans for Points[i].
type PickBatchResult struct {
	// Metrics names the cost components.
	Metrics []string
	// Choices holds, per point, the selected plans (exactly one for the
	// single-plan policies).
	Choices [][]selection.Choice
	// Epsilon is the approximation factor of the plan set the batch was
	// served from.
	Epsilon float64

	texts planTexts
}

// PlanJSON is PickResult.PlanJSON for the batch's plans.
func (r PickBatchResult) PlanJSON(n *plan.Node) []byte { return r.texts.quoted(n) }

// PickBatch evaluates a selection policy at every point of the request
// against a prepared plan set, as one queued unit of work. Points are
// sorted into index cells first, so consecutive picks of one cell reuse
// its candidate subset; answers come back in request order and are
// byte-identical to issuing the Picks one by one. Any invalid point or
// selection failure fails the whole batch (the error names the point).
func (s *Server) PickBatch(ctx context.Context, req PickBatchRequest) (PickBatchResult, error) {
	return pickOn(ctx, s, req.Key, func(e *entry) (PickBatchResult, error) {
		return s.pickBatchEntry(e, req)
	})
}

// pickBatchEntry executes a batch against e.
func (s *Server) pickBatchEntry(e *entry, req PickBatchRequest) (PickBatchResult, error) {
	if !validPolicy(req.Policy) {
		// Request-shape problems are reported as such, before any
		// per-point validation, and even for empty batches.
		return PickBatchResult{}, fmt.Errorf("serve: unknown policy %q", req.Policy)
	}
	for i, x := range req.Points {
		if err := e.validatePoint(x); err != nil {
			return PickBatchResult{}, fmt.Errorf("point %d: %w", i, err)
		}
	}
	// Route every point to its cell, then process in cell order: picks
	// sharing a leaf run back to back on the same (cache-hot) candidate
	// subset. Fallback points (no index, or outside the box) share the
	// full candidate set and run first.
	leaves := make([]int32, len(req.Points))
	indexPicks := 0
	for i, x := range req.Points {
		leaves[i] = -1
		if e.idx != nil {
			if leaf, _, ok := e.idx.Locate(x); ok {
				leaves[i] = leaf
				indexPicks++
			}
		}
	}
	order := make([]int, len(req.Points))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(leaves[a], leaves[b]) })

	shell := PickRequest{
		Policy:   req.Policy,
		Weights:  req.Weights,
		Minimize: req.Minimize,
		Bounds:   req.Bounds,
		Order:    req.Order,
	}
	choices := make([][]selection.Choice, len(req.Points))
	for _, i := range order {
		cands := e.candidates
		if leaves[i] >= 0 {
			cands = e.leafCands[leaves[i]]
		}
		shell.Point = req.Points[i]
		cs, err := applyPolicy(cands, shell)
		if err != nil {
			return PickBatchResult{}, fmt.Errorf("point %d: %w", i, err)
		}
		choices[i] = cs
	}
	s.notePicks(len(req.Points), indexPicks, true)
	return PickBatchResult{Metrics: e.set.Metrics, Choices: choices,
		Epsilon: e.set.Epsilon, texts: e.texts}, nil
}

// pickEntry executes a Pick against e. Selection is pure point
// evaluation (the relevance-region fast path needs no LPs), so it needs
// no solver. With a pick index on the entry, the point is routed to its
// cell and only the cell's candidate subset is scanned — byte-identical
// to the linear fallback by the index's conservative construction.
func (s *Server) pickEntry(e *entry, req PickRequest) (PickResult, error) {
	if err := e.validatePoint(req.Point); err != nil {
		return PickResult{}, err
	}
	cands, viaIndex := e.lookup(req.Point)
	choices, err := applyPolicy(cands, req)
	if err != nil {
		return PickResult{}, err
	}
	indexPicks := 0
	if viaIndex {
		indexPicks = 1
	}
	s.notePicks(1, indexPicks, false)
	return PickResult{Metrics: e.set.Metrics, Choices: choices,
		Epsilon: e.set.Epsilon, texts: e.texts}, nil
}

// notePicks counts one request's served pick points — indexPicks of
// them through the index, the rest by the linear scan.
func (s *Server) notePicks(points, indexPicks int, batch bool) {
	n := int64(points)
	s.picks.points.Add(n)
	s.picks.index.Add(int64(indexPicks))
	s.picks.fallback.Add(n - int64(indexPicks))
	if batch {
		s.picks.batchRequests.Add(1)
		s.picks.batchPoints.Add(n)
	}
}

// reload brings an evicted (or never-seen) plan set back from the
// non-compute sources (Dir, shared store, peers) through the reload
// singleflight; a reload never computes. It accepts the document's own
// approximation factor: the request addressed the tier by key, and the
// key hash already binds ε. The entry is pinned against eviction for
// the duration of the request; callers must call the returned release
// exactly once.
func (s *Server) reload(ctx context.Context, key string, w *worker) (*entry, func(), error) {
	e, _, err := s.reloading.do(ctx, s, key, func(e *entry) *entry { return e }, func() (*entry, error) {
		e, _, _, err := s.resolve(ctx, w, key, nil, nil, nil)
		if err == nil {
			s.mu.Lock()
			s.stats.Reloads++
			s.mu.Unlock()
		}
		return e, err
	})
	if err != nil {
		return nil, nil, err
	}
	if v, ok := s.cache.Get(key, true); ok {
		return v.(*entry), func() { s.cache.Unpin(key) }, nil
	}
	// The re-admitted entry was already evicted again (budget pressure):
	// serve the loaded object unpinned — it stays alive for this
	// request regardless of cache membership.
	return e, func() {}, nil
}

// validatePoint rejects points the stored plan set cannot price.
func (e *entry) validatePoint(x geometry.Vector) error {
	if len(x) != e.set.Space.Dim() {
		return fmt.Errorf("serve: point dimension %d, want %d", len(x), e.set.Space.Dim())
	}
	if !e.set.Space.ContainsPoint(x, geometry.CompareEps) {
		// Outside the parameter space the stored cost pieces would be
		// extrapolated and relevance regions are meaningless; reject
		// instead of fabricating a result.
		return fmt.Errorf("serve: point %v outside the plan set's parameter space", x)
	}
	return nil
}

// validPolicy reports whether p names a selection policy.
func validPolicy(p Policy) bool {
	switch p {
	case PolicyFrontier, "", PolicyWeightedSum, PolicyMinimizeSubjectTo, PolicyLexicographic:
		return true
	}
	return false
}

// applyPolicy runs the request's selection policy over a candidate set.
func applyPolicy(cands []selection.Candidate, req PickRequest) ([]selection.Choice, error) {
	switch req.Policy {
	case PolicyFrontier, "":
		return selection.Frontier(cands, req.Point), nil
	case PolicyWeightedSum:
		c, err := selection.WeightedSum(cands, req.Point, req.Weights)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	case PolicyMinimizeSubjectTo:
		c, err := selection.MinimizeSubjectTo(cands, req.Point, req.Minimize, req.Bounds)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	case PolicyLexicographic:
		c, err := selection.Lexicographic(cands, req.Point, req.Order)
		if err != nil {
			return nil, err
		}
		return []selection.Choice{c}, nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q", req.Policy)
	}
}
