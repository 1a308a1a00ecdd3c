package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/store"
)

// choiceJS is one selected plan in a pick reply.
type choiceJS struct {
	Plan string    `json:"plan"`
	Cost []float64 `json:"cost"`
}

// verifyDoc checks a served plan-set document against the reference:
// the same bytes as the in-process save (pick index included), and the
// same plans once loaded — store.Save of the loaded set equals store.Save
// of the optimizer's result.
func verifyDoc(doc []byte, ref *reference) error {
	if !bytes.Equal(doc, ref.doc) {
		return fmt.Errorf("%v: served document (%d bytes) differs from the in-process result (%d bytes)", ref.tpl, len(doc), len(ref.doc))
	}
	set, err := store.Load(bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("%v: loading served document: %w", ref.tpl, err)
	}
	if len(set.Plans) != len(ref.plans) {
		return fmt.Errorf("%v: %d served plans, want %d", ref.tpl, len(set.Plans), len(ref.plans))
	}
	loaded := make([]*core.PlanInfo, len(set.Plans))
	for i, p := range set.Plans {
		loaded[i] = &core.PlanInfo{Plan: p.Plan, Cost: p.Cost, RR: p.RR}
	}
	var got, want bytes.Buffer
	if err := store.Save(&got, set.Metrics, set.Space, loaded); err != nil {
		return err
	}
	if err := store.Save(&want, ref.metrics, ref.space, ref.plans); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("%v: served plans differ from the in-process result", ref.tpl)
	}
	return nil
}

// fetchDocs fetches the document of every logged Prepare through
// GET /planset/<key>.
func fetchDocs(c *conn, logs []prepLog) (map[string][]byte, error) {
	docs := map[string][]byte{}
	for _, l := range logs {
		if _, ok := docs[l.key]; ok {
			continue
		}
		doc, _, _, err := c.do("GET", "/planset/"+l.key, nil)
		if err != nil {
			return nil, fmt.Errorf("fetching %v: %w", l.tpl, err)
		}
		docs[l.key] = doc
	}
	return docs, nil
}

// verifyDocs verifies every logged Prepare's fetched document against
// its template's reference.
func verifyDocs(logs []prepLog, docs map[string][]byte, refs map[template]*reference) error {
	for _, l := range logs {
		ref := refs[l.tpl]
		if ref == nil {
			return fmt.Errorf("no reference for %v", l.tpl)
		}
		if err := verifyDoc(docs[l.key], ref); err != nil {
			return err
		}
	}
	return nil
}

// choose runs the request's selection policy over cands.
func choose(cands []selection.Candidate, r pickReq, x geometry.Vector) ([]selection.Choice, error) {
	switch r.Policy {
	case "frontier":
		return selection.Frontier(cands, x), nil
	case "weighted":
		c, err := selection.WeightedSum(cands, x, r.Weights)
		return []selection.Choice{c}, err
	case "bound":
		bs := make([]selection.Bound, len(r.Bounds))
		for i, b := range r.Bounds {
			bs[i] = selection.Bound{Metric: b.Metric, Max: b.Max}
		}
		c, err := selection.MinimizeSubjectTo(cands, x, r.Minimize, bs)
		return []selection.Choice{c}, err
	case "lex":
		c, err := selection.Lexicographic(cands, x, r.Order)
		return []selection.Choice{c}, err
	}
	return nil, fmt.Errorf("unknown policy %q", r.Policy)
}

func sameChoices(got []choiceJS, want []selection.Choice) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Plan != want[i].Plan.String() || len(got[i].Cost) != len(want[i].Cost) {
			return false
		}
		for j, v := range got[i].Cost {
			if v != want[i].Cost[j] {
				return false
			}
		}
	}
	return true
}

// verifyPick checks one logged single pick or batch answer against the
// linear scan of the reference's full candidate list.
func verifyPick(l pickLog, refs map[string]*reference) error {
	ref := refs[l.req.Key]
	if ref == nil {
		return fmt.Errorf("pick for unknown key %s", l.req.Key)
	}
	if l.req.Points == nil {
		var resp struct{ Choices []choiceJS }
		if err := json.Unmarshal(l.body, &resp); err != nil {
			return err
		}
		want, err := choose(ref.cands, l.req, l.req.Point)
		if err != nil {
			return fmt.Errorf("%v: linear scan at %v: %w", ref.tpl, l.req.Point, err)
		}
		if !sameChoices(resp.Choices, want) {
			return fmt.Errorf("%v: %s pick at %v differs from the linear scan", ref.tpl, l.req.Policy, l.req.Point)
		}
		return nil
	}
	var resp struct{ Choices [][]choiceJS }
	if err := json.Unmarshal(l.body, &resp); err != nil {
		return err
	}
	if len(resp.Choices) != len(l.req.Points) {
		return fmt.Errorf("%v: batch answered %d of %d points", ref.tpl, len(resp.Choices), len(l.req.Points))
	}
	for i, x := range l.req.Points {
		want, err := choose(ref.cands, l.req, x)
		if err != nil {
			return fmt.Errorf("%v: linear scan at %v: %w", ref.tpl, x, err)
		}
		if !sameChoices(resp.Choices[i], want) {
			return fmt.Errorf("%v: %s batch point %v differs from the linear scan", ref.tpl, l.req.Policy, x)
		}
	}
	return nil
}

// verifyPicks checks every logged answer on two goroutines and returns
// the first mismatch.
func verifyPicks(logs []pickLog, refs map[string]*reference) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(logs); i += len(errs) {
				if err := verifyPick(logs[i], refs); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
