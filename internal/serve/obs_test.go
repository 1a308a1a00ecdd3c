package serve

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpq/internal/obs"
)

// statsLeafPaths walks the Stats struct and returns every leaf field as
// a dotted path ("Cache.Hits"). Nested structs recurse; everything else
// (ints, floats, durations) is a leaf.
func statsLeafPaths(t *testing.T, typ reflect.Type, prefix string) []string {
	t.Helper()
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		path := f.Name
		if prefix != "" {
			path = prefix + "." + f.Name
		}
		if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(time.Duration(0)) {
			out = append(out, statsLeafPaths(t, f.Type, path)...)
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
			out = append(out, path)
		case reflect.Slice:
			// No slice-typed Stats fields exist today; if one appears it
			// needs an explicit metric decision, not silent omission.
			t.Fatalf("Stats field %s is a slice; extend the metrics adapter deliberately", path)
		default:
			t.Fatalf("Stats field %s has unhandled kind %v", path, f.Type.Kind())
		}
	}
	return out
}

// TestStatMetricsCoverEveryStatsField is the drift guard: every leaf
// field of Stats must have a metric binding, and every binding must
// name a real field.
func TestStatMetricsCoverEveryStatsField(t *testing.T) {
	leaves := statsLeafPaths(t, reflect.TypeOf(Stats{}), "")
	bound := make(map[string]statMetric, len(statMetrics))
	names := make(map[string]bool, len(statMetrics))
	for _, m := range statMetrics {
		if _, dup := bound[m.field]; dup {
			t.Errorf("field %s bound twice", m.field)
		}
		bound[m.field] = m
		if names[m.name] {
			t.Errorf("metric name %s used twice", m.name)
		}
		names[m.name] = true
		if m.kind == obs.KindCounter && !strings.HasSuffix(m.name, "_total") {
			t.Errorf("counter %s does not end in _total", m.name)
		}
		if m.kind == obs.KindGauge && strings.HasSuffix(m.name, "_total") {
			t.Errorf("gauge %s ends in _total", m.name)
		}
	}
	leafSet := make(map[string]bool, len(leaves))
	for _, path := range leaves {
		leafSet[path] = true
		if _, ok := bound[path]; !ok {
			t.Errorf("Stats field %s has no metric binding in statMetrics", path)
		}
	}
	for field := range bound {
		if !leafSet[field] {
			t.Errorf("statMetrics binds %s, which is not a Stats field", field)
		}
	}
}

// TestMetricsMatchStatsUnderLoad drives the server concurrently —
// prepares (fresh, cached, cancelled, expired), picks, batches — then
// at quiesce asserts that every /metrics sample equals the
// corresponding Stats field, and that the scrape passes the exposition
// lint and stays monotonic across scrapes.
func TestMetricsMatchStatsUnderLoad(t *testing.T) {
	ring := obs.NewTraceRing(64)
	reg := obs.NewRegistry()
	ring.Instrument(reg)

	s := New(Options{
		Workers:               2,
		Dir:                   t.TempDir(),
		Index:                 true,
		CacheBytes:            1 << 20,
		MaxConcurrentPrepares: 1,
		Trace:                 ring,
	})
	defer s.Close()
	s.RegisterMetrics(reg)

	scrape := func() string {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := scrape()

	ctx := context.Background()
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 3; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tpl := testTemplate(seed)
			res, err := s.Prepare(ctx, tpl)
			if err != nil {
				t.Errorf("prepare seed %d: %v", seed, err)
				return
			}
			if _, err := s.Prepare(ctx, tpl); err != nil { // cache hit
				t.Errorf("re-prepare seed %d: %v", seed, err)
			}
			for _, x := range testPoints {
				if _, err := s.Pick(ctx, PickRequest{Key: res.Key, Point: x}); err != nil {
					t.Errorf("pick seed %d: %v", seed, err)
				}
			}
			if _, err := s.PickBatch(ctx, PickBatchRequest{Key: res.Key, Points: testPoints}); err != nil {
				t.Errorf("batch seed %d: %v", seed, err)
			}
		}(seed)
	}
	wg.Wait()

	// Deterministic context failures: an already-cancelled and an
	// already-expired request each count once at the API boundary.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Prepare(cancelled, testTemplate(1)); err == nil {
		t.Fatal("prepare with cancelled ctx succeeded")
	}
	expired, cancel2 := context.WithDeadline(ctx, time.Time{})
	defer cancel2()
	if _, err := s.Pick(expired, PickRequest{Key: "0", Point: testPoints[0]}); err == nil {
		t.Fatal("pick with expired ctx succeeded")
	}

	// Quiesced: one Stats snapshot and one scrape must agree exactly.
	text := scrape()
	st := s.Stats()
	fams, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(fams); len(errs) != 0 {
		t.Fatalf("scrape fails exposition lint: %v", errs)
	}
	prev, err := obs.ParseExposition(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if errs := obs.CheckMonotonic(prev, fams); len(errs) != 0 {
		t.Fatalf("counters regressed between scrapes: %v", errs)
	}

	values := make(map[string]float64)
	for _, f := range fams {
		for _, smp := range f.Samples {
			if len(smp.Labels) == 0 {
				values[smp.Name] = smp.Value
			}
		}
	}
	for _, m := range statMetrics {
		got, ok := values[m.name]
		if !ok {
			t.Errorf("scrape is missing %s", m.name)
			continue
		}
		if want := m.get(&st); got != want {
			t.Errorf("%s = %v, stats field %s = %v", m.name, got, m.field, want)
		}
	}

	// Sanity: the load actually moved the interesting counters.
	if st.Prepares != 6 || st.Picks != 30 || st.Cancellations != 1 || st.DeadlineExpiries != 1 {
		t.Fatalf("unexpected load shape: %+v", st)
	}

	// The side channel recorded too: the trace ring carries the computed
	// flights with phases.
	if ring.Total() != 3 {
		t.Fatalf("trace ring holds %d flights, want 3 computed prepares", ring.Total())
	}
	for _, ev := range ring.Events() {
		if ev.Source != "computed" || ev.Error != "" {
			t.Fatalf("trace event %+v", ev)
		}
		var phases []string
		for _, p := range ev.Phases {
			phases = append(phases, p.Name)
		}
		want := "admission_wait queue_wait lookup optimize index_build save"
		if strings.Join(phases, " ") != want {
			t.Fatalf("phases = %v, want %q", phases, want)
		}
	}
	if values["mpq_prepare_seconds_count"] != 3 {
		t.Fatalf("mpq_prepare_seconds_count = %v, want 3", values["mpq_prepare_seconds_count"])
	}
}
