package core_test

import (
	"bytes"
	"sync"
	"testing"

	"mpq/internal/core"
	"mpq/internal/workload"
)

// poolDonor is a DonorPool over a fixed set of idle goroutine slots —
// the shape of the serving layer's idle solver-pool workers.
type poolDonor struct {
	slots    chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	accepted int
	declined int
}

func newPoolDonor(n int) *poolDonor {
	d := &poolDonor{slots: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		d.slots <- struct{}{}
	}
	return d
}

func (d *poolDonor) Idle() int { return len(d.slots) }

func (d *poolDonor) Offer(task func()) bool {
	select {
	case <-d.slots:
	default:
		d.mu.Lock()
		d.declined++
		d.mu.Unlock()
		return false
	}
	d.mu.Lock()
	d.accepted++
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { d.slots <- struct{}{} }()
		task()
	}()
	return true
}

// TestDonatedWorkersPreserveDeterminism: a Workers=1 run whose ready
// masks may be planned by donated helpers on their own goroutines must
// produce byte-identical plan sets and exactly the sequential run's
// plan and LP counters — donation may only change wall-clock time.
//
// Whether a goroutine stint plans any mask depends on timing: when the
// stints start late (always at GOMAXPROCS=1), the resident worker has
// already emptied the ready queue and each stint retires with nothing
// to do. The liveness check ("donated workers planned masks") therefore
// runs on the synchronous inlineDonor, in
// TestMaskDonationParallelizesNarrowQueries.
func TestDonatedWorkersPreserveDeterminism(t *testing.T) {
	cfgs := []workload.Config{
		{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 21},
		{Tables: 4, Params: 2, Shape: workload.Clique, Seed: 7},
	}
	for _, cfg := range cfgs {
		seq := core.DefaultOptions()
		seq.Workers = 1
		resSeq, bytesSeq := optimizeAndSave(t, cfg, seq)

		donor := newPoolDonor(3)
		don := core.DefaultOptions()
		don.Workers = 1
		don.Donor = donor
		resDon, bytesDon := optimizeAndSave(t, cfg, don)
		donor.wg.Wait()

		if !bytes.Equal(bytesSeq, bytesDon) {
			t.Errorf("%v: donated run's plan set differs from the sequential run", cfg)
		}
		if resSeq.Stats.CreatedPlans != resDon.Stats.CreatedPlans ||
			resSeq.Stats.PrunedPlans != resDon.Stats.PrunedPlans ||
			resSeq.Stats.FinalPlans != resDon.Stats.FinalPlans {
			t.Errorf("%v: plan counters differ: sequential %+v, donated %+v",
				cfg, resSeq.Stats, resDon.Stats)
		}
		if resSeq.Stats.Geometry != resDon.Stats.Geometry {
			t.Errorf("%v: geometry counters differ: sequential %+v, donated %+v",
				cfg, resSeq.Stats.Geometry, resDon.Stats.Geometry)
		}
		if donor.accepted == 0 {
			t.Errorf("%v: donor pool was never asked for help", cfg)
		}
	}
}

// inlineDonor accepts every offer and runs the stint synchronously on
// the offering goroutine — the most hostile schedule for mask-level
// donation (stints steal masks before the resident worker even starts)
// and a deterministic one, so the DonatedMasks assertion cannot flake.
type inlineDonor struct {
	idle   int
	stints int
}

func (d *inlineDonor) Idle() int { return d.idle }

func (d *inlineDonor) Offer(task func()) bool {
	d.stints++
	task()
	return true
}

// TestMaskDonationParallelizesNarrowQueries: a Workers=1 run must hand
// whole ready masks to donated workers — and stay byte-identical to the sequential
// run, with identical plan and LP counters. Mask-level donation is a
// mid-run raise of the effective worker count, nothing more.
func TestMaskDonationParallelizesNarrowQueries(t *testing.T) {
	cfgs := []workload.Config{
		{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 21},
		{Tables: 4, Params: 2, Shape: workload.Star, Seed: 7},
	}
	for _, cfg := range cfgs {
		seq := core.DefaultOptions()
		seq.Workers = 1
		resSeq, bytesSeq := optimizeAndSave(t, cfg, seq)

		donor := &inlineDonor{idle: 2}
		don := core.DefaultOptions()
		don.Workers = 1
		don.Donor = donor
		resDon, bytesDon := optimizeAndSave(t, cfg, don)

		if !bytes.Equal(bytesSeq, bytesDon) {
			t.Errorf("%v: mask-donated run's plan set differs from the sequential run", cfg)
		}
		if resSeq.Stats.CreatedPlans != resDon.Stats.CreatedPlans ||
			resSeq.Stats.PrunedPlans != resDon.Stats.PrunedPlans ||
			resSeq.Stats.FinalPlans != resDon.Stats.FinalPlans {
			t.Errorf("%v: plan counters differ: sequential %+v, donated %+v",
				cfg, resSeq.Stats, resDon.Stats)
		}
		if resSeq.Stats.Geometry != resDon.Stats.Geometry {
			t.Errorf("%v: geometry counters differ: sequential %+v, donated %+v",
				cfg, resSeq.Stats.Geometry, resDon.Stats.Geometry)
		}
		if resDon.Stats.Scheduler.DonatedMasks == 0 {
			t.Errorf("%v: no whole masks were donated (stints: %d)", cfg, donor.stints)
		}
	}
}

// TestIdleLessDonorIsHarmless: a declining donor (zero idle capacity)
// is never offered work, never blocks the run and changes nothing.
func TestIdleLessDonorIsHarmless(t *testing.T) {
	cfg := workload.Config{Tables: 4, Params: 1, Shape: workload.Star, Seed: 3}
	seq := core.DefaultOptions()
	seq.Workers = 1
	_, bytesSeq := optimizeAndSave(t, cfg, seq)

	empty := newPoolDonor(0) // Idle() == 0: nothing is offered
	don := core.DefaultOptions()
	don.Workers = 1
	don.Donor = empty
	res, bytesDon := optimizeAndSave(t, cfg, don)
	if !bytes.Equal(bytesSeq, bytesDon) {
		t.Error("idle-less donor changed the plan set")
	}
	if offers := empty.accepted + empty.declined; offers != 0 {
		t.Errorf("idle-less donor was offered %d stints, want 0", offers)
	}
	if res.Stats.Scheduler.DonatedMasks != 0 {
		t.Errorf("idle-less donor planned %d masks", res.Stats.Scheduler.DonatedMasks)
	}
}
