package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares; the self-test keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the library or service sees. They
// are measured with tracing off and reported by every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_tps", "trees/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after the repository's
// packages. A layer that does no work in a workload reports 0 there (see
// README.md, "Idle layers").
var perLayer = []metricSpec{
	{"collection.read_mb_per_s", "MB/s"},
	{"newick.parse_us_per_tree", "us"},
	{"newick.allocs_per_tree", "count"},
	{"bipart.extract_us_per_tree", "us"},
	{"bipart.allocs_per_tree", "count"},
	{"core.build_s", "s"},
	{"core.probe_us_per_query", "us"},
	{"core.miss_ratio", "ratio"},
	{"core.cache_hit_ratio", "ratio"},
	{"bfhtable.footprint_mb", "MiB"},
	{"bfhtable.unique_bipartitions", "count"},
	{"bfhsnap.load_ms", "ms"},
	{"bfhsnap.bytes", "bytes"},
	{"serve.decode_us_per_request", "us"},
	{"serve.execute_us_per_request", "us"},
	{"serve.admit_us", "us"},
	{"serve.residual_us", "us"},
	{"serve.queue_depth_max", "count"},
	{"serve.max_rps", "req/s"},
	{"distrib.query_ms_per_request", "ms"},
	{"distrib.rpc_bytes_per_request", "bytes"},
	{"distrib.retries", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout root; work is the directory (inside it) that
	// holds the build, fixtures, records and traces.
	root, work string
	// smoke shrinks every input for the self-test.
	smoke bool
}

// run accumulates one workload run's measurements and verdicts.
type run struct {
	o   options
	w   workload
	fx  *fixtures
	rec *recorder

	metrics   map[string]float64
	attempted int
	failed    int
	// failures name each failed operation (the first few are kept).
	failures []string
	// info holds what the result line has no room for: sample counts,
	// validity of the load generator, host provenance.
	info map[string]any
	// lastMark is when the previous phase ended (see mark).
	lastMark time.Time
}

func newRun(o options, w workload, fx *fixtures) *run {
	return &run{o: o, w: w, fx: fx, rec: newRecorder(o.trace),
		metrics: map[string]float64{}, info: map[string]any{}, lastMark: time.Now()}
}

// mark logs how long the phase that just ended took.
func (r *run) mark(phase string) {
	now := time.Now()
	logf("%s: %s took %.2fs", r.w.name, phase, now.Sub(r.lastMark).Seconds())
	r.lastMark = now
}

// latencyProfile summarizes latencies (ms) beyond the reported pair.
func latencyProfile(lat []float64) map[string]float64 {
	return map[string]float64{"p50": percentile(lat, 50), "p90": percentile(lat, 90),
		"p99": percentile(lat, 99), "p99.9": percentile(lat, 99.9), "max": percentile(lat, 100)}
}

// fail counts one failed operation and keeps its name.
func (r *run) fail(format string, args ...any) { r.failOps(1, format, args...) }

// failOps counts n failed operations under one name.
func (r *run) failOps(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setIdle reports 0 for metrics of layers this workload never enters.
func (r *run) setIdle(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// phase returns the share of the run's measuring time given to one phase.
func (r *run) phase(share float64) float64 { return r.o.seconds * share }

// metricJSON and resultJSON are the result line's shape.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result assembles the result line: every metric of the run's list, each
// with its unit. A missing or non-finite metric is a benchmark bug.
func (r *run) result() (*resultJSON, error) {
	specs := endToEnd
	if r.o.trace {
		specs = perLayer
	}
	out := &resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// record is the run's full account, written to the work directory and
// printed on the line before the result.
func (r *run) record(res *resultJSON) map[string]any {
	rec := map[string]any{
		"workload": r.w.name,
		"seed":     r.o.seed,
		"seconds":  r.o.seconds,
		"trace":    r.o.trace,
		"result":   res,
	}
	if r.attempted > 0 {
		rec["error_ratio"] = float64(r.failed) / float64(r.attempted)
	}
	if len(r.failures) > 0 {
		rec["failures"] = r.failures
	}
	for k, v := range r.info {
		rec[k] = v
	}
	return rec
}

// save writes the record and, for traced runs, the benchmark's spans
// under the work directory.
func (r *run) save(rec map[string]any) error {
	name := fmt.Sprintf("%s-s%d-t%d", r.w.name, r.o.seed, btoi(r.o.trace))
	dir := filepath.Join(r.o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.o.trace {
		return nil
	}
	return r.rec.write(filepath.Join(r.o.work, "traces", name+".jsonl"))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
