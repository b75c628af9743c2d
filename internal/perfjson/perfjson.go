// Package perfjson defines the machine-readable benchmark record that
// tracks the repo's performance trajectory. Every perf-sensitive PR emits a
// suite of records (one per workload × engine) with `rfbench -json`; the
// committed BENCH_*.json files are the baseline that later runs are gated
// against with `rfbench -compare`.
//
// The format is deliberately small: a schema-versioned envelope (Suite)
// holding flat records keyed by a stable workload ID from the experiment
// index plus the engine name. Records carry median-of-k and min-of-k
// nanoseconds per operation so the comparator can distinguish a real
// regression from scheduler noise: a regression is flagged only when both
// the median AND the best-case run slow down past the threshold.
package perfjson

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/memprof"
)

// SchemaVersion is bumped whenever a decoder-visible field changes
// meaning. Decoders accept only versions they know.
const SchemaVersion = 1

// Record is one measured (workload, engine) cell of a benchmark suite.
type Record struct {
	// Workload is the stable ID of the data point from the experiment
	// index (e.g. "vartrees-n100-r1000"). Comparisons match records by
	// (Workload, Engine), so the ID must not encode anything that varies
	// between runs of the same configuration.
	Workload string `json:"workload"`
	// Engine names the measured configuration (DS, DSMP8, HashRF, ...).
	Engine string `json:"engine"`
	// N and R are the taxa and tree counts actually run (post-scaling).
	N int `json:"n"`
	R int `json:"r"`
	// Workers is the engine's parallelism (1 for sequential engines).
	Workers int `json:"workers"`
	// Reps is k, the number of repetitions aggregated below.
	Reps int `json:"repetitions"`
	// NsOpMedian and NsOpMin are the median and minimum wall time of the
	// k repetitions, in nanoseconds per operation (one operation = one
	// full average-RF computation of the workload).
	NsOpMedian int64 `json:"ns_op_median"`
	NsOpMin    int64 `json:"ns_op_min"`
	// PeakHeapMB and PeakHeapMBMin are the median and minimum sampled
	// peak live heap above baseline, in MiB, across the k repetitions.
	// The min is kept for the same reason as NsOpMin: GC timing inflates
	// individual peaks multiplicatively, and a real memory regression
	// moves the floor, not just the median.
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	PeakHeapMBMin float64 `json:"peak_heap_mb_min"`
}

// Key identifies the record for comparison: workload/engine.
func (r Record) Key() string { return r.Workload + "/" + r.Engine }

// Validate reports the first schema violation in the record.
func (r Record) Validate() error {
	switch {
	case r.Workload == "":
		return fmt.Errorf("perfjson: record has empty workload")
	case strings.Contains(r.Workload, "/"):
		return fmt.Errorf("perfjson: workload %q contains '/', reserved for the record key", r.Workload)
	case r.Engine == "":
		return fmt.Errorf("perfjson: record %s has empty engine", r.Workload)
	case r.N <= 0 || r.R <= 0:
		return fmt.Errorf("perfjson: record %s: n=%d r=%d must be positive", r.Key(), r.N, r.R)
	case r.Workers <= 0:
		return fmt.Errorf("perfjson: record %s: workers=%d must be positive", r.Key(), r.Workers)
	case r.Reps <= 0:
		return fmt.Errorf("perfjson: record %s: repetitions=%d must be positive", r.Key(), r.Reps)
	case r.NsOpMedian <= 0 || r.NsOpMin <= 0:
		return fmt.Errorf("perfjson: record %s: ns/op median=%d min=%d must be positive", r.Key(), r.NsOpMedian, r.NsOpMin)
	case r.NsOpMin > r.NsOpMedian:
		return fmt.Errorf("perfjson: record %s: ns/op min %d exceeds median %d", r.Key(), r.NsOpMin, r.NsOpMedian)
	case math.IsNaN(r.PeakHeapMB) || math.IsInf(r.PeakHeapMB, 0) || r.PeakHeapMB < 0:
		return fmt.Errorf("perfjson: record %s: peak_heap_mb %v is not a finite non-negative number", r.Key(), r.PeakHeapMB)
	case math.IsNaN(r.PeakHeapMBMin) || math.IsInf(r.PeakHeapMBMin, 0) || r.PeakHeapMBMin < 0:
		return fmt.Errorf("perfjson: record %s: peak_heap_mb_min %v is not a finite non-negative number", r.Key(), r.PeakHeapMBMin)
	case r.PeakHeapMBMin > r.PeakHeapMB:
		return fmt.Errorf("perfjson: record %s: peak heap min %v exceeds median %v", r.Key(), r.PeakHeapMBMin, r.PeakHeapMB)
	}
	return nil
}

// Suite is the envelope one benchmark run emits: provenance plus records.
type Suite struct {
	Schema int `json:"schema"`
	// Tool identifies the emitter (e.g. "rfbench").
	Tool string `json:"tool,omitempty"`
	// GitCommit is the hash of the measured tree, "unknown" outside git.
	GitCommit string `json:"git_commit,omitempty"`
	// Timestamp is the RFC 3339 emission time.
	Timestamp string `json:"timestamp,omitempty"`
	// Scale is the rfbench -scale factor the workloads ran at; suites
	// measured at different scales are not comparable.
	Scale float64 `json:"scale,omitempty"`
	// Host fingerprints the machine the suite was measured on; nil in
	// suites recorded before hosts were.
	Host    *Host    `json:"host,omitempty"`
	Records []Record `json:"records"`
}

// Host fingerprints a measuring machine, so a comparison across suites
// can tell a code change from a change of hardware.
type Host struct {
	// CPU is the processor model name ("unknown" where the OS does not
	// say).
	CPU string `json:"cpu"`
	// NumCPU is the logical CPU count; GOMAXPROCS the Go scheduler's
	// parallelism at measurement time.
	NumCPU     int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built the measured binary.
	GoVersion string `json:"go_version"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() *Host {
	return &Host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports
// "unknown" where that file does not exist or carries no model.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// String renders the host on one line; a nil host is "unrecorded".
func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// Validate checks the envelope and every record, including key
// uniqueness (duplicate keys would make comparisons ambiguous).
func (s *Suite) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("perfjson: unsupported schema version %d (want %d)", s.Schema, SchemaVersion)
	}
	if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale < 0 {
		return fmt.Errorf("perfjson: scale %v is not a finite non-negative number", s.Scale)
	}
	seen := make(map[string]bool, len(s.Records))
	for _, r := range s.Records {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Key()] {
			return fmt.Errorf("perfjson: duplicate record key %s", r.Key())
		}
		seen[r.Key()] = true
	}
	return nil
}

// byKey indexes the suite's records.
func (s *Suite) byKey() map[string]Record {
	m := make(map[string]Record, len(s.Records))
	for _, r := range s.Records {
		m[r.Key()] = r
	}
	return m
}

// Encode validates the suite and writes it as indented JSON.
func Encode(w io.Writer, s *Suite) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Decode reads and validates a suite.
func Decode(r io.Reader) (*Suite, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("perfjson: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// WriteFile encodes the suite to path atomically (temp file + fsync +
// rename), so a crash mid-write leaves any previous suite intact.
func WriteFile(path string, s *Suite) error {
	f, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Encode(f, s); err != nil {
		return err
	}
	return f.Commit()
}

// ReadFile decodes and validates the suite at path.
func ReadFile(path string) (*Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// FromMeasurements aggregates k memprof measurements into a record:
// median and min wall time, median peak heap. It panics on an empty
// slice (a caller bug, not a data condition).
func FromMeasurements(workload, engine string, n, r, workers int, ms []memprof.Measurement) Record {
	if len(ms) == 0 {
		panic("perfjson: FromMeasurements on zero measurements")
	}
	walls := make([]int64, len(ms))
	heaps := make([]float64, len(ms))
	for i, m := range ms {
		walls[i] = m.Wall.Nanoseconds()
		heaps[i] = m.PeakHeapMB()
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	sort.Float64s(heaps)
	return Record{
		Workload:      workload,
		Engine:        engine,
		N:             n,
		R:             r,
		Workers:       workers,
		Reps:          len(ms),
		NsOpMedian:    median64(walls),
		NsOpMin:       walls[0],
		PeakHeapMB:    medianF(heaps),
		PeakHeapMBMin: heaps[0],
	}
}

// median64 returns the median of a sorted slice (lower middle for even
// lengths, so the value is always one actually observed).
func median64(sorted []int64) int64 {
	return sorted[(len(sorted)-1)/2]
}

func medianF(sorted []float64) float64 {
	return sorted[(len(sorted)-1)/2]
}

// GitCommit returns the current HEAD hash of dir's repository, or
// "unknown" when git or the repository is unavailable — provenance must
// never fail a benchmark run.
func GitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
