package refine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestParseLadder(t *testing.T) {
	good := map[string]string{
		"0.5,0.1,0":   "0.5,0.1,0",
		" 0.5, 0.25 ": "0.5,0.25",
		"0.9":         "0.9",
	}
	for in, want := range good {
		l, err := ParseLadder(in)
		if err != nil {
			t.Errorf("ParseLadder(%q): %v", in, err)
			continue
		}
		if l.String() != want {
			t.Errorf("ParseLadder(%q) = %q, want %q", in, l.String(), want)
		}
	}
	bad := []string{"", "0.1,0.5", "0.5,0.5", "1.0,0.5", "-0.1", "x"}
	for _, in := range bad {
		if _, err := ParseLadder(in); err == nil {
			t.Errorf("ParseLadder(%q) accepted", in)
		}
	}
}

func TestLadderForAndJobs(t *testing.T) {
	l := Ladder{0.5, 0.1}
	eff := l.For(0)
	if eff.String() != "0.5,0.1,0" {
		t.Fatalf("For(0) = %q", eff.String())
	}
	// A template whose own ε sits inside the ladder truncates it.
	if got := l.For(0.25).String(); got != "0.5,0.25" {
		t.Errorf("For(0.25) = %q, want 0.5,0.25", got)
	}
	// Jobs from the coarsest resident generation: every finer step.
	jobs := eff.Jobs("k", 0.5)
	if len(jobs) != 2 {
		t.Fatalf("Jobs from 0.5 = %+v, want 2 steps", jobs)
	}
	if jobs[0] != (Job{Key: "k", Epsilon: 0.1, Gen: 1}) {
		t.Errorf("first job = %+v", jobs[0])
	}
	if jobs[1] != (Job{Key: "k", Epsilon: 0, Gen: 2, Final: true}) {
		t.Errorf("final job = %+v", jobs[1])
	}
	// Already final: nothing to do.
	if jobs := eff.Jobs("k", 0); len(jobs) != 0 {
		t.Errorf("Jobs from final = %+v, want none", jobs)
	}
}

// TestLadderIndex: Index locates a step of an effective ladder and
// reports -1 for a factor that is not one of its steps.
func TestLadderIndex(t *testing.T) {
	eff := Ladder{0.5, 0.1}.For(0)
	for eps, want := range map[float64]int{0.5: 0, 0.1: 1, 0: 2, 0.25: -1} {
		if got := eff.Index(eps); got != want {
			t.Errorf("Index(%v) = %d, want %d", eps, got, want)
		}
	}
}

// TestRefinerRunsChainsInOrder: jobs execute serially, FIFO, each chain
// in ladder order, and Wait observes quiescence.
func TestRefinerRunsChainsInOrder(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := New(ctx, func(_ context.Context, job Job) error {
		mu.Lock()
		ran = append(ran, fmt.Sprintf("%s@%g", job.Key, job.Epsilon))
		mu.Unlock()
		return nil
	})
	defer r.Close()

	eff := Ladder{0.5, 0.1}.For(0)
	if !r.Schedule(eff.Jobs("a", 0.5)) {
		t.Fatal("schedule a refused")
	}
	if !r.Schedule(eff.Jobs("b", 0.5)) {
		t.Fatal("schedule b refused")
	}
	// A key with queued work is deduped.
	if r.Schedule(eff.Jobs("a", 0.5)) {
		t.Error("duplicate chain for a accepted")
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := r.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := fmt.Sprint(ran)
	mu.Unlock()
	want := fmt.Sprint([]string{"a@0.1", "a@0", "b@0.1", "b@0"})
	if got != want {
		t.Errorf("execution order %s, want %s", got, want)
	}
	st := r.Stats()
	if st.Scheduled != 4 || st.Completed != 4 || st.Pending != 0 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRefinerDropsChainOnFailure: a failing step cancels the rest of
// its chain but not other keys'; an ErrObsolete step is skipped and
// the chain continues.
func TestRefinerFailureAndObsolete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var ran []string
	r := New(ctx, func(_ context.Context, job Job) error {
		mu.Lock()
		ran = append(ran, fmt.Sprintf("%s@%g", job.Key, job.Epsilon))
		mu.Unlock()
		if job.Key == "bad" && job.Epsilon == 0.1 {
			return errors.New("boom")
		}
		if job.Key == "peer" && job.Epsilon == 0.1 {
			return ErrObsolete // a peer already refined this step
		}
		return nil
	})
	defer r.Close()

	eff := Ladder{0.5, 0.1}.For(0)
	r.Schedule(eff.Jobs("bad", 0.5))
	r.Schedule(eff.Jobs("peer", 0.5))
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := r.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := fmt.Sprint(ran)
	mu.Unlock()
	// bad@0 must not run; peer@0 must.
	want := fmt.Sprint([]string{"bad@0.1", "peer@0.1", "peer@0"})
	if got != want {
		t.Errorf("execution order %s, want %s", got, want)
	}
	st := r.Stats()
	if st.Failed != 1 || st.Cancelled != 1 || st.Skipped != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The failed key's chain is gone: it can be rescheduled.
	if !r.Schedule(eff.Jobs("bad", 0.5)) {
		t.Error("reschedule after failure refused")
	}
}

// TestRefinerCloseQuiesces: Close aborts the in-flight job through the
// lifecycle context, drains the queue as cancelled, and only returns
// once the executor has retired.
func TestRefinerCloseQuiesces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once // job b may also start if it wins the race with the close watcher
	r := New(ctx, func(jctx context.Context, job Job) error {
		once.Do(func() { close(started) })
		<-jctx.Done() // a long optimization aborted at a checkpoint
		return jctx.Err()
	})
	eff := Ladder{0.5}.For(0)
	r.Schedule(eff.Jobs("a", 0.5)) // one in-flight…
	r.Schedule(eff.Jobs("b", 0.5)) // …one queued
	<-started
	r.Close()
	st := r.Stats()
	if st.Running != 0 || st.Pending != 0 {
		t.Fatalf("refiner not quiescent after Close: %+v", st)
	}
	if st.Cancelled != 2 {
		t.Errorf("cancelled = %d, want 2 (in-flight + queued)", st.Cancelled)
	}
	// Post-close schedules are refused.
	if r.Schedule(eff.Jobs("c", 0.5)) {
		t.Error("Schedule accepted after Close")
	}
	// Wait on a closed refiner returns immediately.
	if err := r.Wait(context.Background()); err != nil {
		t.Error(err)
	}
}
