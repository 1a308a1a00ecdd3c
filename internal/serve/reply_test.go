package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// checkTexts asserts texts holds one pre-rendered entry per plan of a
// numPlans-plan set, each exactly json.Marshal(Node.String()), and
// covers every chosen plan (none is rendered on the pick path).
func checkTexts(t *testing.T, what string, texts planTexts, numPlans int, choices []selection.Choice) {
	t.Helper()
	if len(texts) != numPlans {
		t.Errorf("%s: %d pre-rendered plans, want %d", what, len(texts), numPlans)
	}
	for n, b := range texts {
		if want, _ := json.Marshal(n.String()); !bytes.Equal(b, want) {
			t.Errorf("%s: pre-rendered %s, want %s", what, b, want)
		}
	}
	if len(choices) == 0 {
		t.Errorf("%s: no choices to check", what)
	}
	for _, c := range choices {
		if _, ok := texts[c.Plan]; !ok {
			t.Errorf("%s: chosen plan %v has no pre-rendered text", what, c.Plan)
		}
	}
}

// TestPlanTextMatchesString: every candidate's pre-rendered reply text
// equals its Node.String() rendering — for a freshly prepared set and
// a set reloaded at pick time.
func TestPlanTextMatchesString(t *testing.T) {
	ctx := context.Background()
	t.Run("prepared", func(t *testing.T) {
		s := New(Options{Workers: 1, Index: true})
		defer s.Close()
		res, err := s.Prepare(ctx, testTemplate(21))
		if err != nil {
			t.Fatal(err)
		}
		v, _ := s.cache.Get(res.Key, false)
		e := v.(*entry)
		for _, x := range testPoints {
			pr, err := s.Pick(ctx, PickRequest{Key: res.Key, Point: x})
			if err != nil {
				t.Fatal(err)
			}
			checkTexts(t, "prepared", pr.texts, len(e.candidates), pr.Choices)
		}
		for _, c := range e.candidates {
			if want, _ := json.Marshal(c.Plan.String()); !bytes.Equal(e.texts[c.Plan], want) {
				t.Errorf("candidate %v: pre-rendered %s, want %s", c.Plan, e.texts[c.Plan], want)
			}
		}
		br, err := s.PickBatch(ctx, PickBatchRequest{Key: res.Key, Points: testPoints})
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range br.Choices {
			checkTexts(t, "batch", br.texts, len(e.candidates), cs)
		}
	})
	t.Run("reloaded", func(t *testing.T) {
		// A one-byte budget keeps only the newest set: preparing a
		// second template evicts the first, whose pick then reloads
		// the document from Dir.
		s := New(Options{Workers: 1, Index: true, Dir: t.TempDir(), CacheBytes: 1})
		defer s.Close()
		res, err := s.Prepare(ctx, testTemplate(21))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(ctx, testTemplate(22)); err != nil {
			t.Fatal(err)
		}
		pr, err := s.Pick(ctx, PickRequest{Key: res.Key, Point: testPoints[2], Policy: PolicyWeightedSum, Weights: []float64{1, 10000}})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Reloads != 1 {
			t.Fatalf("Reloads = %d, want 1", st.Reloads)
		}
		checkTexts(t, "reloaded", pr.texts, res.NumPlans, pr.Choices)
	})
}

// TestPlanSetKeyCarriesRevision: the plan-set key depends on the
// optimizer revision, so sets stored by a build that prunes differently
// are never served under this build's keys.
func TestPlanSetKeyCarriesRevision(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	schema, cfg, err := testTemplate(21).resolve()
	if err != nil {
		t.Fatal(err)
	}
	key, err := planSetKey(schema, cfg, s.opts.Optimizer, s.opts.Solver, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rev, wantSame := range map[int]bool{core.Revision: true, core.Revision - 1: false, core.Revision + 1: false} {
		got, err := planSetKeyAt(rev, schema, cfg, s.opts.Optimizer, s.opts.Solver, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (got == key) != wantSame {
			t.Errorf("revision %d: key %s, current revision's %s (want equal: %v)", rev, got, key, wantSame)
		}
	}
}

// TestKeyMemo: a generated template's memoized key is the full path's
// key; an evicted plan set still recomputes under a memoized key with
// unchanged cache accounting; ε (down to its sign bit) separates keys;
// an explicit Schema or Cloud bypasses the memo; the memo stays
// bounded.
func TestKeyMemo(t *testing.T) {
	ctx := context.Background()
	s := New(Options{Workers: 1, CacheBytes: 1})
	defer s.Close()
	full := func(tpl Template) string {
		t.Helper()
		schema, cfg, err := tpl.resolve()
		if err != nil {
			t.Fatal(err)
		}
		eps, err := s.resolveEpsilon(tpl)
		if err != nil {
			t.Fatal(err)
		}
		key, err := planSetKey(schema, cfg, s.opts.Optimizer, s.opts.Solver, eps)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	memoLen := func() int {
		s.keyMu.Lock()
		defer s.keyMu.Unlock()
		return len(s.keys)
	}

	tpl := testTemplate(21)
	var prev PrepareResult
	var firstHits, firstMisses int64
	for i := 0; i < 2; i++ {
		if i == 1 {
			// The one-byte budget keeps only the newest set.
			if _, err := s.Prepare(ctx, testTemplate(22)); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Stats().Cache
		res, err := s.Prepare(ctx, tpl)
		if err != nil {
			t.Fatal(err)
		}
		after := s.Stats().Cache
		if res.Key != full(tpl) {
			t.Fatalf("prepare %d: key %s, full path %s", i, res.Key, full(tpl))
		}
		// The second Prepare finds its key in the memo but its set
		// evicted: it must recompute, and the cache must see the same
		// lookups as the first, unmemoized, Prepare.
		if res.Cached || res.Stats.CreatedPlans == 0 {
			t.Errorf("prepare %d: cached %v, created %d plans; want a recomputation", i, res.Cached, res.Stats.CreatedPlans)
		}
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if i == 1 && (hits != firstHits || misses != firstMisses) {
			t.Errorf("memoized prepare: cache hits/misses %+d/%+d, first prepare %+d/%+d", hits, misses, firstHits, firstMisses)
		}
		firstHits, firstMisses = hits, misses
		prev = res
	}
	if memoLen() != 2 {
		t.Fatalf("memo holds %d keys, want 2", memoLen())
	}

	eps, negZero := 0.1, math.Copysign(0, -1)
	keys := map[string]bool{prev.Key: true}
	for _, e := range []*float64{&eps, &negZero} {
		tplE := tpl
		tplE.Epsilon = e
		for i := 0; i < 2; i++ { // miss, then memo hit
			key, err := s.Key(tplE)
			if err != nil {
				t.Fatal(err)
			}
			if key != full(tplE) {
				t.Fatalf("ε=%v: key %s, full path %s", *e, key, full(tplE))
			}
		}
		key, _ := s.Key(tplE)
		if keys[key] {
			t.Errorf("ε=%v shares key %s with another tier", *e, key)
		}
		keys[key] = true
	}
	if memoLen() != 4 {
		t.Fatalf("memo holds %d keys, want 4", memoLen())
	}

	schema, err := workload.Generate(tpl.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cloud.DefaultConfig()
	for _, explicit := range []Template{{Schema: schema}, {Workload: tpl.Workload, Cloud: &cfg}} {
		key, err := s.Key(explicit)
		if err != nil {
			t.Fatal(err)
		}
		if key != full(explicit) || key != prev.Key {
			t.Errorf("explicit template key %s, full path %s, generated %s", key, full(explicit), prev.Key)
		}
	}
	if memoLen() != 4 {
		t.Errorf("explicit Schema/Cloud templates entered the memo: %d keys", memoLen())
	}

	for seed := int64(1); seed <= keyMemoCap; seed++ {
		if _, err := s.Key(testTemplate(1000 + seed)); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > keyMemoCap {
			t.Fatalf("memo grew to %d keys, cap %d", n, keyMemoCap)
		}
	}
	if key, _ := s.Key(tpl); key != prev.Key {
		t.Errorf("key after the memo reset: %s, want %s", key, prev.Key)
	}
}
