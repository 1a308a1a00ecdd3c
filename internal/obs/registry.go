// Package obs is the observability subsystem: a zero-dependency typed
// metrics registry rendering the Prometheus text exposition format, an
// exposition parser/linter (the format contract is enforced in-tree,
// not by an external scraper) and a bounded ring of Prepare phase
// traces.
//
// Everything here is passive with respect to the optimizer's
// determinism contracts: instrumentation is atomic adds and scrape-time
// snapshots, never an input to a planning decision. The only wall-clock
// reads live in clock.go behind documented //mpq:wallclock waivers; the
// rest of the package is time-free. See DESIGN.md, "Observability".
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair of a metric's label set.
type Label struct {
	Name  string
	Value string
}

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern — counters and gauges hold one so durations and byte totals
// render without integer truncation.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Counter is a monotonically increasing sample. Adapters that mirror an
// external cumulative source (a Stats snapshot) refresh it with
// SetTotal at collect time instead of Add.
type Counter struct {
	val atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.val.Add(1) }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta float64) {
	if delta < 0 || math.IsNaN(delta) {
		panic(fmt.Sprintf("obs: counter add %v (counters only increase)", delta))
	}
	c.val.Add(delta)
}

// SetTotal replaces the counter's value with a cumulative total read
// from an external monotonic source. The exposition linter's
// cross-scrape monotonicity check is the guard against a source that
// is not actually monotonic.
func (c *Counter) SetTotal(total float64) { c.val.Store(total) }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.val.Load() }

// Gauge is a sample that can go up and down.
type Gauge struct {
	val atomicFloat
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.val.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) { g.val.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.Load() }

// Histogram is a fixed-bucket cumulative histogram: Observe is a
// binary search plus two atomic adds, so it is safe on request paths.
// Bucket bounds are fixed at registration (upper bounds, ascending; an
// implicit +Inf bucket is appended).
type Histogram struct {
	bounds []float64
	bins   []atomic.Int64 // len(bounds)+1; bins[i] counts v <= bounds[i]
	sum    atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.bins[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.bins {
		n += h.bins[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// ExpBuckets returns n upper bounds growing geometrically from start by
// factor — the standard shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the default seconds buckets for request-phase
// histograms: 10µs to ~84s in ×2 steps.
func DurationBuckets() []float64 { return ExpBuckets(10e-6, 2, 23) }

// Kind names a metric kind in adapter tables (code that maps an
// external stats snapshot onto metrics and needs to say which kind
// each field becomes).
type Kind string

// The adapter-facing kinds. Histograms are registered directly, not
// through adapter tables.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
)

// metricKind discriminates the families.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: its metadata plus every label-set child.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only

	children map[string]*child // keyed by rendered label string
}

type child struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration is idempotent: asking for an existing
// (name, labels) returns the same metric, so collect hooks may
// re-register per-instance children (per peer, per phase) on every
// scrape. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	collectMu  sync.Mutex
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnCollect installs a hook run at the start of every WriteText — the
// seam adapters use to refresh mirrored snapshot values at scrape time.
func (r *Registry) OnCollect(fn func()) {
	r.collectMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collectMu.Unlock()
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := r.metric(name, help, kindCounter, nil, labels)
	return c.ctr
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	c := r.metric(name, help, kindGauge, nil, labels)
	return c.gauge
}

// Histogram registers (or returns the existing) histogram with the
// given upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	c := r.metric(name, help, kindHistogram, bounds, labels)
	return c.hist
}

func (r *Registry) metric(name, help string, kind metricKind, bounds []float64, labels []Label) *child {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Name, name))
		}
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, children: make(map[string]*child)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			c.ctr = &Counter{}
		case kindGauge:
			c.gauge = &Gauge{}
		case kindHistogram:
			c.hist = &Histogram{bounds: append([]float64(nil), f.bounds...), bins: make([]atomic.Int64, len(f.bounds)+1)}
		}
		f.children[key] = c
	}
	return c
}

// WriteText runs the collect hooks, then renders every family in the
// Prometheus text exposition format (version 0.0.4): families sorted
// by name, children sorted by label string, so two scrapes of an
// unchanged registry are byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	r.collectMu.Lock()
	hooks := make([]func(), len(r.collectors))
	copy(hooks, r.collectors)
	r.collectMu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := f.children[k]
		switch f.kind {
		case kindCounter:
			renderSample(b, f.name, c.labels, nil, c.ctr.Value())
		case kindGauge:
			renderSample(b, f.name, c.labels, nil, c.gauge.Value())
		case kindHistogram:
			var cum int64
			for i, bound := range c.hist.bounds {
				cum += c.hist.bins[i].Load()
				le := Label{Name: "le", Value: formatValue(bound)}
				renderSample(b, f.name+"_bucket", c.labels, &le, float64(cum))
			}
			cum += c.hist.bins[len(c.hist.bounds)].Load()
			le := Label{Name: "le", Value: "+Inf"}
			renderSample(b, f.name+"_bucket", c.labels, &le, float64(cum))
			renderSample(b, f.name+"_sum", c.labels, nil, c.hist.Sum())
			renderSample(b, f.name+"_count", c.labels, nil, float64(cum))
		}
	}
}

func renderSample(b *strings.Builder, name string, labels []Label, extra *Label, v float64) {
	b.WriteString(name)
	all := labels
	if extra != nil {
		all = append(append([]Label(nil), labels...), *extra)
	}
	if len(all) > 0 {
		b.WriteString(renderLabels(all))
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// renderLabels renders a label set as {a="x",b="y"} with exposition
// escaping; the empty set renders as the empty string (also the child
// map key of the unlabeled child).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline (the HELP line escapes of
// the text format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
