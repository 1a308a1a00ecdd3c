package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"mpq/internal/catalog"
	"mpq/internal/core"
	"mpq/internal/geometry"
)

// span is one traced interval, recorded by the benchmark around its own
// calls into a layer. Hot leaf calls (Dom, Accumulate, cost-model
// alternatives, Locate, selection) are not recorded one span per call:
// they aggregate into one span per parent with Calls and Total set and
// Start/End unused.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int           `json:"req"`    // request id shared by one request's spans
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Calls  int64         `json:"calls,omitempty"`
	Total  time.Duration `json:"total_ns,omitempty"`
}

func (s span) aggregate() bool { return s.Calls > 0 }

// duration is the span's wall time (the summed call time for an
// aggregate).
func (s span) duration() time.Duration {
	if s.aggregate() {
		return s.Total
	}
	return s.End - s.Start
}

// tracer keeps spans in memory; write dumps them at the end of a run.
// It is single-goroutine (the traced run uses one optimizer worker).
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root, which starts a new
// request id). A nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	req := id
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.epoch)
	}
}

// aggregate drains a leaf timer into one aggregate span under parent.
func (t *tracer) aggregate(name string, parent int, l *leafTimer) {
	calls, total := l.drain()
	t.aggregateCalls(name, parent, calls, total)
}

func (t *tracer) aggregateCalls(name string, parent int, calls int64, total time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.spans[parent].Req, Name: name, Calls: calls, Total: total})
}

// children returns the direct children of span id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id && s.ID != id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval its
// children cover: the union of the child spans' intervals clipped to
// the parent, plus the totals of child aggregates (leaf calls of one
// sequential worker never overlap each other or a sibling span).
func selfTime(parent span, children []span) time.Duration {
	var agg time.Duration
	var iv [][2]time.Duration
	for _, c := range children {
		if c.aggregate() {
			agg += c.Total
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi time.Duration
	open := false
	for _, r := range iv {
		if open && r[0] <= curHi {
			curHi = max(curHi, r[1])
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = r[0], r[1], true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.duration() - covered - agg
}

// byName sums the duration and calls of every span with the given name.
func (t *tracer) byName(name string) (total time.Duration, calls int64) {
	for _, s := range t.spans {
		if s.Name == name {
			total += s.duration()
			if s.aggregate() {
				calls += s.Calls
			} else {
				calls++
			}
		}
	}
	return total, calls
}

// selfByName sums the self time of every span with the given name.
func (t *tracer) selfByName(name string) time.Duration {
	var total time.Duration
	for _, s := range t.spans {
		if s.Name == name && !s.aggregate() {
			total += selfTime(s, t.children(s.ID))
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// leafTimer accumulates the calls and time of one kind of leaf call.
type leafTimer struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (l *leafTimer) since(t0 time.Time) {
	l.calls.Add(1)
	l.nanos.Add(int64(time.Since(t0)))
}

// drain returns and zeroes the counts (between traced requests).
func (l *leafTimer) drain() (int64, time.Duration) {
	return l.calls.Swap(0), time.Duration(l.nanos.Swap(0))
}

// pwlAlgebra is the optimizer's cost algebra under observation: it
// delegates every call to the PWL algebra the optimizer would build
// itself and times Dom and Accumulate. It changes no result.
type pwlAlgebra struct {
	inner    *core.PWLAlgebra
	dom, acc *leafTimer
}

var (
	_ core.ForkableAlgebra = (*pwlAlgebra)(nil)
	_ core.EpsilonAlgebra  = (*pwlAlgebra)(nil)
)

func newPWLAlgebra(s *geometry.Solver, metrics int) *pwlAlgebra {
	return &pwlAlgebra{inner: core.NewPWLAlgebra(s, metrics), dom: new(leafTimer), acc: new(leafTimer)}
}

func (a *pwlAlgebra) Fork(s *geometry.Solver) core.Algebra {
	return &pwlAlgebra{inner: a.inner.Fork(s).(*core.PWLAlgebra), dom: a.dom, acc: a.acc}
}

func (a *pwlAlgebra) Dom(c1, c2 core.Cost) []*geometry.Polytope {
	t0 := time.Now()
	defer a.dom.since(t0)
	return a.inner.Dom(c1, c2)
}

func (a *pwlAlgebra) DomScaled(c1, c2 core.Cost, s1, s2 float64) []*geometry.Polytope {
	t0 := time.Now()
	defer a.dom.since(t0)
	return a.inner.DomScaled(c1, c2, s1, s2)
}

func (a *pwlAlgebra) Accumulate(step, c1, c2 core.Cost) core.Cost {
	t0 := time.Now()
	defer a.acc.since(t0)
	return a.inner.Accumulate(step, c1, c2)
}

func (a *pwlAlgebra) Eval(c core.Cost, x geometry.Vector) geometry.Vector {
	return a.inner.Eval(c, x)
}

// costModel is the cloud cost model under observation: it delegates to
// the wrapped model and times the operator-alternative calls, where the
// cloud layer builds its PWL cost functions.
type costModel struct {
	inner core.CostModel
	alt   *leafTimer
}

func (m *costModel) Space() *geometry.Polytope { return m.inner.Space() }
func (m *costModel) MetricNames() []string     { return m.inner.MetricNames() }

func (m *costModel) ScanAlternatives(t catalog.TableID) []core.Alternative {
	t0 := time.Now()
	defer m.alt.since(t0)
	return m.inner.ScanAlternatives(t)
}

func (m *costModel) JoinAlternatives(l, r catalog.TableSet) []core.Alternative {
	t0 := time.Now()
	defer m.alt.since(t0)
	return m.inner.JoinAlternatives(l, r)
}
