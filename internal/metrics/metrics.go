// Package metrics is the serving layer's observability substrate: lock-cheap
// counters, gauges, and fixed-bucket latency histograms, collected in a
// process-wide registry and exposed in the Prometheus text format.
//
// Design rules, in order:
//
//   - The hot path is atomic-only. Counter.Inc/Add, Gauge.Set/Add, and
//     Histogram.Observe touch nothing but atomics — no locks, no
//     allocations, no map lookups. Callers resolve their metric handles once
//     (package var or struct field) and hold them.
//   - Registration is slow-path. Registry.Counter/Gauge/Histogram get-or-
//     create under a mutex; call them at construction time, not per event.
//   - Reads are snapshots. WritePrometheus and the *Value accessors observe
//     each atomic independently; a scrape concurrent with writes may see a
//     histogram whose bucket sum trails its count by in-flight observations,
//     which Prometheus semantics tolerate.
//
// Labeled metrics share one family (one HELP/TYPE block) keyed by the
// canonicalized label set, mirroring the Prometheus data model closely
// enough that `GET /metrics` output is scrapeable verbatim.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric's label set. Nil or empty means an unlabeled metric.
type Labels map[string]string

// Counter is a monotonically increasing uint64. The zero value is unusable —
// obtain counters from a Registry so they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they wrap).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (in-flight requests, live sessions).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Inc adds one and returns the new value (handy for semaphore-style gauges).
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency bounds in seconds: 500µs to 10s, the
// span a chat/retrieve request realistically lands in.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper-bound counters in the Prometheus style, with an implicit +Inf
// bucket; Observe is a binary search plus three atomic ops.
type Histogram struct {
	// bounds are the inclusive upper bounds, sorted ascending; counts has
	// len(bounds)+1 slots, the last being the +Inf overflow bucket.
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	// sum holds math.Float64bits of the running sum, advanced by CAS.
	sum atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; all larger samples overflow to +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot returns the bucket upper bounds and the cumulative count at or
// below each bound (the final entry is the +Inf total). The copy is
// internally consistent enough for quantile estimates; a scrape racing
// writers may trail by in-flight observations.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// metric is anything a family can hold: a *Counter, *Gauge, *Histogram or
// *funcMetric (writeMetric's cases).
type metric any

// funcMetric is a counter- or gauge-typed sample computed at scrape time —
// how externally owned values (cache counters, session counts) surface
// without double bookkeeping on their own hot paths.
type funcMetric struct {
	// fn holds a func() float64; atomic because scrapes read it outside the
	// registry lock while re-registration may replace it.
	fn atomic.Value
}

func (f *funcMetric) eval() (float64, bool) {
	if fn, ok := f.fn.Load().(func() float64); ok && fn != nil {
		return fn(), true
	}
	return 0, false
}

// family is every metric sharing one name (and so one HELP/TYPE block).
type family struct {
	name string
	help string
	typ  string
	// metrics is keyed by the canonical label string, which is also the
	// rendered exposition form.
	metrics map[string]metric
	// order remembers insertion order of label keys for stable output.
	order []string
}

// Registry is a concurrent, process-wide metric catalog. The zero value is
// not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry everything instruments into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Production code registers here
// so one `GET /metrics` scrape sees the whole process; tests wanting
// isolation build their own with NewRegistry.
func Default() *Registry { return defaultRegistry }

// canonicalLabels renders labels as a deterministic `k="v",...` string —
// both the family map key and the exposition form.
func canonicalLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get-or-create machinery. mk builds the metric when absent; a name reused
// with a different metric type panics — that is a programming error best
// caught at startup, not a runtime condition.
func (r *Registry) metric(name, help, typ string, labels Labels, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:    name,
			help:    help,
			typ:     typ,
			metrics: make(map[string]metric),
		}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	key := canonicalLabels(labels)
	m, ok := f.metrics[key]
	if !ok {
		m = mk()
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns (creating if needed) the counter with the given name and
// label set. help is recorded on first registration and may be "" later.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.metric(name, help, "counter", labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns (creating if needed) the gauge with the given name/labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.metric(name, help, "gauge", labels, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating if needed) the histogram with the given
// name/labels. buckets (upper bounds, seconds for latencies) is consulted
// only on first creation; nil means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return r.metric(name, help, "histogram", labels, func() metric { return newHistogram(buckets) }).(*Histogram)
}

// CounterFunc registers a counter-typed sample evaluated at scrape time.
// fn must be safe for concurrent use and monotonic for Prometheus rate()
// to behave. Re-registering the same name+labels replaces the function.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "counter", labels, fn)
}

// GaugeFunc registers a gauge-typed sample evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "gauge", labels, fn)
}

func (r *Registry) registerFunc(name, help, typ string, labels Labels, fn func() float64) {
	m := r.metric(name, help, typ, labels, func() metric { return &funcMetric{} })
	f, ok := m.(*funcMetric)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as a non-func %s", name, typ))
	}
	f.fn.Store(fn)
}

// famSnapshot is one family's rows copied out under the registry lock, so
// rendering (which evaluates func metrics) runs without holding it.
type famSnapshot struct {
	name, help, typ string
	keys            []string
	metrics         []metric
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		snap := famSnapshot{
			name: f.name, help: f.help, typ: f.typ,
			keys:    append([]string(nil), f.order...),
			metrics: make([]metric, len(f.order)),
		}
		for i, key := range f.order {
			snap.metrics[i] = f.metrics[key]
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, key := range f.keys {
			writeMetric(w, f, key, f.metrics[i])
		}
	}
}

func writeMetric(w io.Writer, f famSnapshot, labelKey string, m metric) {
	suffix := ""
	if labelKey != "" {
		suffix = "{" + labelKey + "}"
	}
	switch v := m.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, v.Value())
	case *Gauge:
		fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, v.Value())
	case *funcMetric:
		if val, ok := v.eval(); ok {
			fmt.Fprintf(w, "%s%s %s\n", f.name, suffix, formatFloat(val))
		}
	case *Histogram:
		bounds, cum := v.Snapshot()
		for i, b := range bounds {
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, joinLabels(labelKey, fmt.Sprintf(`le="%s"`, formatFloat(b))), cum[i])
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, joinLabels(labelKey, `le="+Inf"`), cum[len(cum)-1])
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, suffix, formatFloat(v.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, suffix, v.Count())
	}
}

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler serves the registry in the Prometheus text format — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
