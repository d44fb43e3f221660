package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metric families and renders them in
// Prometheus text exposition format. Reads and writes on an instrument
// already in hand are lock-free atomics. A vector's With is not: it
// joins the label values into a key and looks it up under the family
// mutex, so hot callers resolve a child once and keep it. The registry
// mutex guards only registration and scraping.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a help string, a type, and its
// series (one for scalar instruments, one per label combination for
// vectors).
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string

	mu     sync.Mutex
	series map[string]series // key = joined label values
	// collect, when set, replaces the series map at scrape time
	// (scrape-time snapshot families; counters and gauges only).
	collect func(emit func(labelVals []string, value float64))
}

type series interface {
	value() float64
	labelVals() []string
}

func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[f.name]; ok {
		return prev
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

func (f *family) get(vals []string, mk func() series) series {
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if f.series == nil {
		f.series = make(map[string]series)
	}
	s := mk()
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing count.
type Counter struct {
	vals []string
	n    atomic.Uint64
}

// Add increments the counter; safe on nil.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Inc adds one; safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

func (c *Counter) value() float64      { return float64(c.n.Load()) }
func (c *Counter) labelVals() []string { return c.vals }

// Counter registers (or finds) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(&family{name: name, help: help, typ: "counter"})
	return f.get(nil, func() series { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	f *family
}

// With returns the counter for the given label values, created on
// first use. It takes the family mutex; safe on nil.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals, func() series {
		return &Counter{vals: append([]string(nil), labelVals...)}
	}).(*Counter)
}

// Sum is the total over every child counter; safe on nil.
func (v *CounterVec) Sum() uint64 {
	if v == nil {
		return 0
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var n uint64
	for _, s := range v.f.series {
		n += s.(*Counter).Value()
	}
	return n
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	vals []string
	bits atomic.Uint64
}

// Set stores the gauge value; safe on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Add shifts the gauge by d (CAS loop); safe on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (g *Gauge) value() float64      { return g.Value() }
func (g *Gauge) labelVals() []string { return g.vals }

// Gauge registers (or finds) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(&family{name: name, help: help, typ: "gauge"})
	return f.get(nil, func() series { return &Gauge{} }).(*Gauge)
}

// DefBuckets are the default latency buckets in seconds: 100µs up to
// 10s, roughly exponential — wide enough for a microsecond scoring
// stage and a multi-second million-user resolve on one scale.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram, hot-path safe: Observe does
// one binary search, one atomic add and one CAS-loop float add.
type Histogram struct {
	vals    []string
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(vals []string, bounds []float64) *Histogram {
	return &Histogram{
		vals:   vals,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value; safe on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is one histogram's consistent-enough read: bucket
// counts are cumulative in exposition but stored per-bucket here.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates q (in [0,1]) from the bucket midpoints — rough,
// but good enough for a dashboard percentile readout.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lower := 0.0
	for i, c := range s.Counts {
		seen += float64(c)
		upper := math.Inf(1)
		if i < len(s.Bounds) {
			upper = s.Bounds[i]
		}
		if seen >= rank {
			if math.IsInf(upper, 1) {
				return lower
			}
			return (lower + upper) / 2
		}
		lower = upper
	}
	return lower
}

func (h *Histogram) value() float64      { return 0 } // unused; histograms render specially
func (h *Histogram) labelVals() []string { return h.vals }

// Histogram registers (or finds) a scalar histogram with the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{name: name, help: help, typ: "histogram"})
	return f.get(nil, func() series { return newHistogram(nil, buckets) }).(*Histogram)
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With returns the histogram for the given label values, created on
// first use. It takes the family mutex; safe on nil.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals, func() series {
		return newHistogram(append([]string(nil), labelVals...), v.buckets)
	}).(*Histogram)
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{name: name, help: help, typ: "histogram", labels: labels})
	return &HistogramVec{f: f, buckets: buckets}
}

// CollectFunc registers a scrape-time family: fn runs on every scrape
// and emits (label values, value) pairs. typ is "counter" or "gauge".
// Use it for values another subsystem already tracks (pipeline queue
// depth, WAL fsync totals, replication lag) instead of mirroring them
// into live instruments.
func (r *Registry) CollectFunc(name, help, typ string, labels []string, fn func(emit func(labelVals []string, value float64))) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: fn})
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes a HELP string.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelPairs(names, vals []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, n := range names {
		val := ""
		if i < len(vals) {
			val = vals[i]
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(val))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in text exposition format
// (version 0.0.4): # HELP / # TYPE headers, escaped label values,
// cumulative histogram buckets with le and +Inf plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if f.collect != nil {
		var err error
		f.collect(func(vals []string, v float64) {
			if err != nil {
				return
			}
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, vals), formatValue(v))
		})
		return err
	}
	f.mu.Lock()
	all := make([]series, 0, len(f.series))
	for _, s := range f.series {
		all = append(all, s)
	}
	f.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		return strings.Join(all[i].labelVals(), "\xff") < strings.Join(all[j].labelVals(), "\xff")
	})
	for _, s := range all {
		if h, ok := s.(*Histogram); ok {
			if err := h.writeProm(w, f.name, f.labels); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labels, s.labelVals()), formatValue(s.value())); err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) writeProm(w io.Writer, name string, labels []string) error {
	snap := h.Snapshot()
	var cum uint64
	for i, b := range snap.Bounds {
		cum += snap.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelPairs(labels, h.vals, "le", formatValue(b)), cum); err != nil {
			return err
		}
	}
	cum += snap.Counts[len(snap.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelPairs(labels, h.vals, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(labels, h.vals), formatValue(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(labels, h.vals), snap.Count)
	return err
}

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
