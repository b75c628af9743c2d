package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder keeps the benchmark's own spans: one per call into a layer's
// public function, recorded from this package around the call (the
// program under test is not modified). Spans stay in memory and are
// written out as JSONL when the run ends. A disabled recorder (untraced
// runs) records nothing and costs one branch per call.
type recorder struct {
	on   bool
	base time.Time

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Parent is 0 for a root. Times are
// nanoseconds since the run started.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder(on bool) *recorder { return &recorder{on: on, base: time.Now()} }

// span is an open span; end closes it and returns its duration.
type span struct {
	r      *recorder
	id     int
	parent int
	name   string
	start  time.Time
}

// start opens a span named after the layer call it wraps. The span is a
// value, so timing a call allocates nothing that would skew an
// allocation count taken around it.
func (r *recorder) start(name string, parent int) span {
	s := span{r: r, parent: parent, name: name, start: time.Now()}
	if r.on {
		r.mu.Lock()
		s.id = len(r.spans) + 1
		r.spans = append(r.spans, spanRec{ID: s.id}) // reserve the ID
		r.mu.Unlock()
	}
	return s
}

func (s span) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.r.on {
		s.r.mu.Lock()
		s.r.spans[s.id-1] = spanRec{ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.Sub(s.r.base).Nanoseconds(), End: now.Sub(s.r.base).Nanoseconds()}
		s.r.mu.Unlock()
	}
	return d
}

// busy sums the durations and counts the spans called name.
func (r *recorder) busy(name string) (time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d, n
}

// perCall is the mean span duration of name in microseconds.
func (r *recorder) perCall(name string) float64 {
	d, n := r.busy(name)
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

// medianUS is the median span duration of name in microseconds.
func (r *recorder) medianUS(name string) float64 {
	r.mu.Lock()
	var us []float64
	for _, s := range r.spans {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	r.mu.Unlock()
	if len(us) == 0 {
		return 0
	}
	return median(us)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// counter reads a bfhrf_* counter the program exports through
// internal/obs. Reading never changes a value; a family the program has
// not touched yet reads 0.
func counter(name string, labels ...obs.Label) uint64 {
	return obs.Counter(name, "", labels...).Value()
}

// counters snapshots the program's counters that the per-layer metrics
// are deltas of.
type counters struct {
	lookups, misses, cacheHits, cacheMisses uint64
	rpcRead, rpcWritten, retries            uint64
	gcCycles                                uint32
	gcPause                                 uint64
}

func readCounters(workerAddrs []string) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		lookups:     counter("bfhrf_hash_lookups_total"),
		misses:      counter("bfhrf_hash_misses_total"),
		cacheHits:   counter("bfhrf_cache_hit_total"),
		cacheMisses: counter("bfhrf_cache_miss_total"),
		rpcRead:     counter("bfhrf_rpc_bytes_total", obs.L("side", "coordinator"), obs.L("direction", "read")),
		rpcWritten:  counter("bfhrf_rpc_bytes_total", obs.L("side", "coordinator"), obs.L("direction", "written")),
		gcCycles:    ms.NumGC,
		gcPause:     ms.PauseTotalNs,
	}
	for _, a := range workerAddrs {
		c.retries += counter("bfhrf_rpc_retries_total",
			obs.L("side", "coordinator"), obs.L("method", "Query"), obs.L("worker", a))
	}
	return c
}

// since is the change from an earlier snapshot.
func (c counters) since(b counters) counters {
	return counters{
		lookups: c.lookups - b.lookups, misses: c.misses - b.misses,
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		rpcRead: c.rpcRead - b.rpcRead, rpcWritten: c.rpcWritten - b.rpcWritten,
		retries:  c.retries - b.retries,
		gcCycles: c.gcCycles - b.gcCycles, gcPause: c.gcPause - b.gcPause,
	}
}

// setPhaseMetrics reports the layer metrics read off the program's
// counters over the traced end-to-end phase.
func (r *run) setPhaseMetrics(d counters) {
	r.set("core.miss_ratio", ratio(d.misses, d.lookups))
	r.set("core.cache_hit_ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses))
	r.set("gc.cycles", float64(d.gcCycles))
	r.set("gc.pause_ms", float64(d.gcPause)/1e6)
}

// tracing turns the program's own tracer on for the traced phase (every
// root span kept), so the phase pays what in-program tracing costs.
func tracing(on bool) {
	if on {
		obs.CurrentTracer().SetSampleRate(1)
	} else {
		obs.CurrentTracer().SetSampleRate(0)
	}
}

// allocs counts heap allocations made by fn.
func allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
