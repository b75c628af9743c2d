package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Error("same name should return the same instance")
	}
	if other := r.Counter("x_total", "help", L("k", "v")); other == c {
		t.Error("different labels should return a different instance")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(1.5)
	g.Dec()
	if got := g.Value(); got != 3 {
		t.Errorf("Value = %g, want 3", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 16 {
		t.Errorf("Sum = %g, want 16", got)
	}
	// Bucket counts (non-cumulative): le=1 gets 0.5 and 1 (inclusive
	// upper bound), le=2 gets 1.5, le=5 gets 3, +Inf gets 10.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "help", nil)
	if got, want := len(h.Buckets()), len(DefLatencyBuckets); got != want {
		t.Errorf("default buckets = %d, want %d", got, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Error("requesting a counter as a gauge should panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	r.Counter("bad name", "help")
}

func TestDuplicateLabelPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("duplicate label keys should panic")
		}
	}()
	r.Counter("m_total", "help", L("a", "1"), L("a", "2"))
}

// TestInvalidLabelNamePanics: label names are validated when a series is
// created, whether its family is new or already has other series.
func TestInvalidLabelNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam_total", "help", L("ok", "1"))
	for _, name := range []string{"new_total", "fam_total"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid label name should panic", name)
				}
			}()
			r.Counter(name, "help", L("bad-key", "1"))
		}()
	}
}

// TestRepeatLookupAllocatesNothing: resolving an existing series — the
// per-RPC pattern of the distrib metrics — is a map probe, with no
// regexp run and no allocation.
func TestRepeatLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	labels := func() (Label, Label, Label) {
		return L("side", "coordinator"), L("method", "Query"), L("worker", "127.0.0.1:7911")
	}
	a, b, c := labels()
	h := r.Histogram("rpc_seconds", "help", nil, a, b, c)
	cn := r.Counter("rpc_errors_total", "help", a, b, c)
	allocs := testing.AllocsPerRun(100, func() {
		a, b, c := labels()
		if r.Histogram("rpc_seconds", "help", nil, c, a, b) != h || r.Counter("rpc_errors_total", "help", b, c, a) != cn {
			t.Fatal("repeat lookup resolved a different instance")
		}
	})
	if allocs != 0 {
		t.Fatalf("repeat lookup allocates %v times, want 0", allocs)
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "help", L("x", "1"), L("y", "2"))
	b := r.Counter("m_total", "help", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("label order should not distinguish instances")
	}
}

func TestGaugeNegativeAndInf(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Error("gauge should hold +Inf")
	}
	g.Set(-2.5)
	if got := g.Value(); got != -2.5 {
		t.Errorf("Value = %g, want -2.5", got)
	}
}

// TestRegistryConcurrency hammers registration, updates, and exposition
// from many goroutines; run under -race (ci.sh includes this package in
// the race subset).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 400

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", g%4)
			for i := 0; i < iters; i++ {
				r.Counter("conc_total", "h", L("worker", worker)).Inc()
				r.Gauge("conc_inflight", "h").Add(1)
				r.Histogram("conc_seconds", "h", nil, L("worker", worker)).Observe(float64(i) / 1000)
				r.Gauge("conc_inflight", "h").Add(-1)
			}
		}(g)
	}
	// Concurrent scrapes while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	var total uint64
	for g := 0; g < 4; g++ {
		total += r.Counter("conc_total", "h", L("worker", fmt.Sprintf("w%d", g))).Value()
	}
	if want := uint64(goroutines * iters); total != want {
		t.Errorf("total counter = %d, want %d", total, want)
	}
	if got := r.Gauge("conc_inflight", "h").Value(); got != 0 {
		t.Errorf("inflight gauge = %g, want 0", got)
	}
	var count uint64
	for g := 0; g < 4; g++ {
		count += r.Histogram("conc_seconds", "h", nil, L("worker", fmt.Sprintf("w%d", g))).Count()
	}
	if want := uint64(goroutines * iters); count != want {
		t.Errorf("histogram count = %d, want %d", count, want)
	}
}
