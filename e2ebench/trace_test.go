package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 0, Parent: -1, Start: 0, End: 100 * ms}
	children := []span{
		{Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Parent: 0, Start: 20 * ms, End: 40 * ms},  // overlaps the first: [10,40] counts once
		{Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped to the parent: 10ms
		{Parent: 0, Calls: 3, Total: 15 * ms},      // an aggregate of leaf calls
	}
	if got, want := selfTime(parent, children), 100*ms-30*ms-10*ms-15*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Errorf("selfTime without children = %v", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("prepare", -1)
	child := tr.begin("core.optimize", root)
	time.Sleep(2 * time.Millisecond)
	tr.aggregateCalls("pwl.dom", child, 4, time.Millisecond)
	tr.end(child)
	tr.end(root)
	other := tr.begin("prepare", -1)
	tr.end(other)
	if tr.spans[child].Req != tr.spans[root].Req || tr.spans[other].Req == tr.spans[root].Req {
		t.Errorf("request ids: root %d child %d other %d", tr.spans[root].Req, tr.spans[child].Req, tr.spans[other].Req)
	}
	opt, _ := tr.byName("core.optimize")
	if self := tr.selfByName("core.optimize"); self != opt-time.Millisecond {
		t.Errorf("optimize self time %v, want %v", self, opt-time.Millisecond)
	}
	if _, calls := tr.byName("pwl.dom"); calls != 4 {
		t.Errorf("aggregate calls = %d, want 4", calls)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1)) // a nil tracer records nothing
}

// TestObservationIsPassive is the passive-instrument self-test: the
// observed algebra and cost model must leave the saved bytes, the
// geometry counters and the plan counts of every shape unchanged.
func TestObservationIsPassive(t *testing.T) {
	for _, tp := range []template{tpl("chain", 1, 5, 3), tpl("star", 1, 4, 1), tpl("cycle", 2, 3, 2), tpl("clique", 1, 5, 2)} {
		base, err := computeReference(context.Background(), tp, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		root := tr.begin("prepare", -1)
		obs, err := computeReference(context.Background(), tp, tr, root)
		if err != nil {
			t.Fatal(err)
		}
		tr.end(root)
		if err := samePassive(base, obs); err != nil {
			t.Error(err)
		}
		for _, name := range []string{"pwl.dom", "pwl.accumulate", "cloud.alternatives"} {
			if _, calls := tr.byName(name); calls == 0 {
				t.Errorf("%v: no %s calls observed", tp, name)
			}
		}
	}
}

func TestVerifyDocRejectsChangedBytes(t *testing.T) {
	ref, err := computeReference(context.Background(), tpl("chain", 1, 4, 1), nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyDoc(ref.doc, ref); err != nil {
		t.Fatalf("own document rejected: %v", err)
	}
	bad := append([]byte(nil), ref.doc...)
	bad[len(bad)/2] ^= 1
	if verifyDoc(bad, ref) == nil {
		t.Error("a changed document verified")
	}
}
