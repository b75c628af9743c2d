package obs

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Keep cardinality low: label values should
// come from small closed sets (RPC method, worker address, pipeline stage),
// never from unbounded input (tree content, file paths).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the three supported metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// CounterMetric is a monotonically increasing count. All methods are safe
// for concurrent use; Inc/Add are a single atomic add, cheap enough for
// per-tree accounting (per-bipartition hot loops should still accumulate
// locally and Add once per tree or batch).
type CounterMetric struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *CounterMetric) Inc() { c.v.Add(1) }

// Add adds n.
func (c *CounterMetric) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *CounterMetric) Value() uint64 { return c.v.Load() }

// GaugeMetric is a float64 value that can go up and down.
type GaugeMetric struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *GaugeMetric) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to decrement).
func (g *GaugeMetric) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *GaugeMetric) Inc() { g.Add(1) }
func (g *GaugeMetric) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *GaugeMetric) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramMetric is a fixed-bucket histogram in the Prometheus style:
// cumulative bucket counts, a sum, and a total count. Observations are
// lock-free (one atomic add per observation plus a CAS on the sum).
type HistogramMetric struct {
	// bounds are the inclusive upper bounds, ascending, excluding +Inf.
	bounds []float64
	// counts[i] observes bounds[i]; counts[len(bounds)] is the +Inf bucket.
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *HistogramMetric) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *HistogramMetric) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *HistogramMetric) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the configured upper bounds (excluding +Inf).
func (h *HistogramMetric) Buckets() []float64 { return append([]float64(nil), h.bounds...) }

// DefLatencyBuckets cover RPC and pipeline-stage latencies from 100µs to
// 10s, the operating range of tree parsing, BFH builds, and query batches.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets cover message and payload sizes in bytes (256 B – 16 MiB).
var DefSizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
}

// LinearBuckets returns count evenly spaced upper bounds starting at
// start: start, start+width, …  Useful for bounded ratios (e.g. shard
// coverage in [0,1]) where exponential latency-style buckets would waste
// resolution. count must be positive and width non-negative.
func LinearBuckets(start, width float64, count int) []float64 {
	if count <= 0 {
		panic("obs: LinearBuckets needs a positive count")
	}
	if width < 0 {
		panic("obs: LinearBuckets needs a non-negative width")
	}
	b := make([]float64, count)
	for i := range b {
		b[i] = start + width*float64(i)
	}
	return b
}

// instance is one labeled metric within a family, keeping the sorted
// label set for exposition.
type instance struct {
	labels []Label // sorted by key
	metric any     // *CounterMetric | *GaugeMetric | *HistogramMetric
}

// family groups every labeled instance of one metric name. Type, help and
// (for histograms) buckets are fixed at first registration.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
	metrics map[string]*instance // label signature -> instance
}

// Registry holds metric families and hands out their labeled instances.
// Registration (the Counter/Gauge/Histogram accessors) takes a lock;
// updates on the returned metrics are lock-free, so hot paths should hold
// on to the instance rather than re-resolve it per event.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// appendSignature appends the canonical map key of a label set (sorted
// by label name) to dst. It doubles as the exposition ordering key, so
// metric lines within a family are stable across runs. Sets of up to
// eight labels are sorted on the stack, so a lookup of an existing
// series allocates nothing.
func appendSignature(dst []byte, labels []Label) []byte {
	var tmp [8]Label
	ls := append(tmp[:0], labels...)
	sortLabels(ls)
	for i, l := range ls {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, escapeLabelValue(l.Value)...)
	}
	return dst
}

// sortLabels sorts a (small) label set by name in place.
func sortLabels(ls []Label) {
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
}

// lookup resolves or creates the (family, instance) pair. Misuse —
// re-registering a name with a different type, invalid names, duplicate
// label keys — panics: these are programmer errors, caught by the first
// test that touches the metric. Names are validated when a family or
// series is created, so resolving an existing one is a map probe.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) any {
	var buf [128]byte
	sig := appendSignature(buf[:0], labels)

	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		in, ok := f.metrics[string(sig)]
		kindGot := f.kind
		r.mu.RUnlock()
		if kindGot != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, kindGot, kind))
		}
		if ok {
			return in.metric
		}
	} else {
		r.mu.RUnlock()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
		}
		if in, ok := f.metrics[string(sig)]; ok {
			return in.metric
		}
	} else if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sortLabels(ls)
	for i, l := range ls {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: duplicate label %q on metric %q", l.Key, name))
		}
	}
	if !ok {
		if kind == kindHistogram && len(buckets) == 0 {
			buckets = DefLatencyBuckets
		}
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		f = &family{name: name, help: help, kind: kind, buckets: bs, metrics: make(map[string]*instance)}
		r.families[name] = f
	}
	var m any
	switch kind {
	case kindCounter:
		m = &CounterMetric{}
	case kindGauge:
		m = &GaugeMetric{}
	case kindHistogram:
		h := &HistogramMetric{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		m = h
	}
	f.metrics[string(sig)] = &instance{labels: ls, metric: m}
	return m
}

// Counter returns the labeled counter, creating family and instance as
// needed. The same (name, labels) always yields the same instance.
func (r *Registry) Counter(name, help string, labels ...Label) *CounterMetric {
	return r.lookup(name, help, kindCounter, nil, labels).(*CounterMetric)
}

// Gauge returns the labeled gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *GaugeMetric {
	return r.lookup(name, help, kindGauge, nil, labels).(*GaugeMetric)
}

// Histogram returns the labeled histogram. Buckets apply only at family
// creation; pass nil afterwards (or for DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *HistogramMetric {
	return r.lookup(name, help, kindHistogram, buckets, labels).(*HistogramMetric)
}
