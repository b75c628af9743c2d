// Package experiments is the reproduction harness: it regenerates every
// table and figure of the paper's evaluation section (Fig. 1, Fig. 2,
// Tables II–V, the §VI.C statistics, and an empirical check of Table I's
// complexity claims) from the simulated datasets.
//
// Every experiment follows the paper's protocol: the dataset is
// materialized to a Newick file, each engine reads that file exactly as the
// original tools read theirs (Q is R), and wall time plus peak heap are
// recorded per run. A scale factor shrinks the sweep points uniformly so
// the full suite finishes in minutes on a laptop; at scale 1 the sizes are
// the paper's.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hashrf"
	"repro/internal/memprof"
	"repro/internal/newick"
	"repro/internal/seqrf"
	"repro/internal/taxa"
)

// Engine identifies one of the paper's six measured configurations.
type Engine string

// The engines of the paper's evaluation (§V): the sequential baseline, its
// 8- and 16-way parallelizations, HashRF, and BFHRF with 8 and 16 workers.
const (
	DS      Engine = "DS"
	DSMP8   Engine = "DSMP8"
	DSMP16  Engine = "DSMP16"
	HashRF  Engine = "HashRF"
	BFHRF8  Engine = "BFHRF8"
	BFHRF16 Engine = "BFHRF16"
	// BFHRFOA, BFHRFMAP, and BFHRFSUCC are the hash-backend ablation
	// trio, beyond the paper's six configurations: identical 8-worker
	// BFHRF runs that pin the frequency hash to the open-addressing
	// table, the paper's Go-map dict (the experiments-side baseline of
	// dict.go, re-keyed from an open-addressing build), or the succinct
	// compressed-key table.
	// Their measured region is repeated query passes over pre-extracted
	// bipartition sets (build and parsing excluded), so the ns/op ratios
	// isolate the per-lookup cost each backend changes, and the peak-heap
	// figure — table footprint plus in-region allocation — records the
	// succinct arena's memory win on the huge-n workloads.
	BFHRFOA   Engine = "BFHRF-OA"
	BFHRFMAP  Engine = "BFHRF-MAP"
	BFHRFSUCC Engine = "BFHRF-SUCC"
	// BFHRFCACHED and BFHRFNOCACHE are the query-cache A/B pair on the
	// replicate-heavy workload (see replicate.go): identical 8-worker
	// probe passes over a repeat-dominated query stream, with and without
	// the topology-fingerprint result cache. Build, parsing and extraction
	// are excluded from the measured region, so the CACHED/NOCACHE ratio
	// isolates what the cache saves on bootstrap-style traffic.
	BFHRFCACHED  Engine = "BFHRF-CACHED"
	BFHRFNOCACHE Engine = "BFHRF-NOCACHE"
	// BFHRFLOAD and BFHRFREBUILD are the snapshot A/B pair on the huge-n
	// workload (see snapshot.go): REBUILD measures what every fresh run
	// pays — streaming the reference file through parse, extraction, and
	// the parallel hash build — while LOAD measures restoring the same
	// hash from a persisted epoch (bfhsnap.Store), which installs the
	// stored slot arrays wholesale. Their ratio is the win `-save-bfh` /
	// `-load-bfh` buys on a reference collection that rarely changes.
	BFHRFLOAD    Engine = "BFHRF-LOAD"
	BFHRFREBUILD Engine = "BFHRF-REBUILD"
)

// AllEngines lists the engines in the paper's table order.
func AllEngines() []Engine {
	return []Engine{DS, DSMP8, DSMP16, HashRF, BFHRF8, BFHRF16}
}

// Config tunes the harness.
type Config struct {
	// Scale multiplies every sweep size (taxa counts are never scaled; tree
	// counts are). 1.0 reproduces the paper's sizes; the default harness
	// value 0.02 finishes the whole suite in minutes.
	Scale float64
	// Engines to run; nil means AllEngines().
	Engines []Engine
	// QueryCap bounds the number of query trees the quadratic baselines
	// (DS, DSMP) actually execute; when q exceeds the cap the runtime is
	// extrapolated linearly and flagged, mirroring the paper's "estimated
	// the rate of trees per minute" protocol for DS on large inputs.
	QueryCap int
	// MemBudgetMB bounds HashRF's all-vs-all matrix; exceeding it aborts
	// the run, standing in for the kernel OOM kills the paper reports.
	MemBudgetMB int
	// WorkDir holds materialized dataset files. Defaults to a temp dir.
	WorkDir string
	// Verbose emits per-run progress lines to stderr.
	Verbose bool
}

// DefaultConfig returns the fast-laptop defaults.
func DefaultConfig() Config {
	return Config{
		Scale:       0.02,
		QueryCap:    64,
		MemBudgetMB: 2048,
	}
}

func (c *Config) engines() []Engine {
	if len(c.Engines) == 0 {
		return AllEngines()
	}
	return c.Engines
}

func (c *Config) scale() float64 {
	if c.Scale <= 0 {
		return 0.02
	}
	return c.Scale
}

// ScaleTrees applies the scale factor to a tree count, keeping at least 8.
func (c *Config) ScaleTrees(r int) int {
	s := int(math.Round(float64(r) * c.scale()))
	if s < 8 {
		s = 8
	}
	return s
}

func (c *Config) workDir() (string, error) {
	if c.WorkDir != "" {
		return c.WorkDir, os.MkdirAll(c.WorkDir, 0o755)
	}
	dir, err := os.MkdirTemp("", "bfhrf-bench-")
	if err != nil {
		return "", err
	}
	c.WorkDir = dir
	return dir, nil
}

func (c *Config) logf(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// RunResult is one measured (engine, dataset point) cell of a paper table.
type RunResult struct {
	Engine Engine
	// N and R are the taxa and tree counts of the data point.
	N, R int
	// Minutes is wall time in minutes (the paper's unit); Estimated marks
	// extrapolation from a query subsample.
	Minutes   float64
	Estimated bool
	// MemoryMB is the peak sampled heap in MiB.
	MemoryMB float64
	// Err is non-nil when the engine refused or aborted (HashRF on
	// unweighted input or over the matrix budget) — rendered as the
	// paper's "-" cells.
	Err error
}

// TimeCell renders the Minutes column like the paper ("-" for failures,
// "*" suffix for estimates).
func (r RunResult) TimeCell() string {
	if r.Err != nil {
		return "-"
	}
	s := fmt.Sprintf("%.3f", r.Minutes)
	if r.Estimated {
		s += "*"
	}
	return s
}

// MemCell renders the Memory column like the paper.
func (r RunResult) MemCell() string {
	if r.Err != nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", r.MemoryMB)
}

// materialize writes the first r trees of spec to a Newick file in the
// work dir (cached across engines) and returns its path and catalogue.
func (c *Config) materialize(spec dataset.Spec, r int) (string, *taxa.Set, error) {
	dir, err := c.workDir()
	if err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-r%d.nwk", spec.Name, r))
	ts := spec.Taxa()
	if _, err := os.Stat(path); err == nil {
		return path, ts, nil // cached
	}
	src, _ := spec.Source()
	head := &collection.Head{Src: src, N: r}
	f, err := atomicio.Create(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	opts := newick.WriteOptions{BranchLengths: !spec.Unweighted, Precision: 6}
	count := 0
	for {
		t, err := head.Next()
		if err != nil {
			break
		}
		if err := newick.Write(f, t, opts); err != nil {
			return "", nil, err
		}
		count++
	}
	if count != r {
		return "", nil, fmt.Errorf("experiments: materialized %d of %d trees for %s", count, r, spec.Name)
	}
	if err := f.Commit(); err != nil {
		return "", nil, err
	}
	return path, ts, nil
}

// RunPoint measures one engine on the first r trees of spec (Q = R, as in
// every experiment of the paper).
func (c *Config) RunPoint(engine Engine, spec dataset.Spec, r int) RunResult {
	res := RunResult{Engine: engine, N: spec.NumTaxa, R: r}
	c.logf("  %-8s n=%-5d r=%-7d ...", engine, spec.NumTaxa, r)
	start := time.Now()
	m, factor, err := c.MeasurePoint(engine, spec, r)
	if err != nil {
		res.Err = err
	} else {
		res.Minutes = m.Minutes() * factor
		res.Estimated = factor != 1
		res.MemoryMB = m.PeakHeapMB()
	}
	c.logf("  %-8s n=%-5d r=%-7d time=%s mem=%sMB (%.1fs elapsed)",
		engine, spec.NumTaxa, r, res.TimeCell(), res.MemCell(), time.Since(start).Seconds())
	return res
}

// MeasurePoint runs one engine on the first r trees of spec and returns
// the raw memprof measurement plus the extrapolation factor its wall time
// must be multiplied by to estimate the full run (1 when the run was
// exact, r/QueryCap when the quadratic baselines were subsampled). The
// perf sweep repeats this call and feeds the measurements into perfjson
// records; RunPoint wraps it into the paper's table cells.
func (c *Config) MeasurePoint(engine Engine, spec dataset.Spec, r int) (memprof.Measurement, float64, error) {
	path, ts, err := c.materialize(spec, r)
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	defer src.Close()

	switch engine {
	case DS, DSMP8, DSMP16:
		return c.runSeq(engine, src, path, ts, r)
	case HashRF:
		return c.runHashRF(src, ts)
	case BFHRF8, BFHRF16:
		return c.runBFHRF(engine, src, path, ts)
	case BFHRFOA, BFHRFMAP, BFHRFSUCC:
		return c.runBFHRFBackend(engine, src, path, ts)
	case BFHRFCACHED, BFHRFNOCACHE:
		return c.runBFHRFReplicate(engine, src, ts, spec)
	case BFHRFLOAD, BFHRFREBUILD:
		return c.runSnapshotLoad(engine, src, path, ts, r)
	default:
		return memprof.Measurement{}, 1, fmt.Errorf("experiments: unknown engine %q", engine)
	}
}

func workersOf(e Engine) int {
	switch e {
	case DS:
		return 1
	case DSMP8, BFHRF8, BFHRFOA, BFHRFMAP, BFHRFSUCC, BFHRFCACHED, BFHRFNOCACHE,
		BFHRFLOAD, BFHRFREBUILD:
		return 8
	case DSMP16, BFHRF16:
		return 16
	default:
		return 1
	}
}

// runSeq measures DS/DSMP. When r (= q) exceeds QueryCap, only the first
// QueryCap query trees are executed and the returned factor extrapolates
// the runtime (memory is not extrapolated: the reference structures are
// fully loaded either way, which is what dominates).
func (c *Config) runSeq(engine Engine, src *collection.File, path string, ts *taxa.Set, r int) (memprof.Measurement, float64, error) {
	qCap := c.QueryCap
	if qCap <= 0 || qCap > r {
		qCap = r
	}
	qsrc, err := collection.OpenFile(path)
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	defer qsrc.Close()
	q := &collection.Head{Src: qsrc, N: qCap}

	m := memprof.Measure(func() error {
		_, err := seqrf.AverageRF(q, src, seqrf.Options{Taxa: ts, Workers: workersOf(engine)})
		return err
	})
	if m.Err != nil {
		return m, 1, m.Err
	}
	factor := 1.0
	if qCap < r {
		factor = float64(r) / float64(qCap)
	}
	return m, factor, nil
}

func (c *Config) runHashRF(src *collection.File, ts *taxa.Set) (memprof.Measurement, float64, error) {
	budget := c.MemBudgetMB
	if budget <= 0 {
		budget = 2048
	}
	// Each triangle cell is 2 bytes.
	maxCells := budget * (1 << 20) / 2
	m := memprof.Measure(func() error {
		_, err := hashrf.AverageRF(src, hashrf.Options{
			Taxa:           ts,
			MaxMatrixCells: maxCells,
		})
		return err
	})
	return m, 1, m.Err
}

// backendQueryPasses is the number of full query passes the backend A/B
// engines execute inside the measured region. One pass over a scaled
// slice finishes in single-digit milliseconds — too quick for the
// comparator's 10% threshold to gate code rather than scheduler jitter —
// so the pass count lifts both engines into the tens-of-milliseconds
// band without changing their ratio.
const backendQueryPasses = 100

// hugeTaxaQueryPasses replaces backendQueryPasses once masks reach 4096
// taxa: each pass is two orders of magnitude more work per probe, so ten
// passes already put the measured region far beyond the comparator's
// noise band without stretching the sweep.
const hugeTaxaQueryPasses = 10

func backendOf(engine Engine) core.Backend {
	if engine == BFHRFSUCC {
		return core.BackendSuccinct
	}
	return core.BackendOpenAddressing
}

// runBFHRFBackend measures the BFHRF-OA / BFHRF-MAP / BFHRF-SUCC trio.
// The hash build and the query-tree parsing/extraction both happen before
// measurement starts: the engines differ only in the frequency-hash
// backend, so the recorded region is repeated AverageRFOfSplits passes
// over pre-extracted bipartition sets and the ns/op ratio is
// lookup-dominated. The pre-built table itself sits below the sampled
// baseline, so its footprint is folded into the peak-heap figure via
// MeasureWith — the record then reports what the backend actually holds,
// which is the number the succinct arena shrinks.
func (c *Config) runBFHRFBackend(engine Engine, src *collection.File, path string, ts *taxa.Set) (memprof.Measurement, float64, error) {
	h, err := core.Build(src, ts, core.BuildOptions{
		Workers:         workersOf(engine),
		RequireComplete: true,
		Backend:         backendOf(engine),
	})
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	splits, err := extractAll(path, ts)
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	passes := backendQueryPasses
	if ts.Len() >= 4096 {
		passes = hugeTaxaQueryPasses
	}
	if engine == BFHRFMAP {
		d, err := newDictHash(h, false)
		if err != nil {
			return memprof.Measurement{}, 1, err
		}
		m := memprof.MeasureWith(d.footprintBytes, func() error {
			p := &dictProber{d: d}
			for pass := 0; pass < passes; pass++ {
				for _, bs := range splits {
					p.averageRF(bs)
				}
			}
			return nil
		})
		return m, 1, m.Err
	}
	m := memprof.MeasureWith(h.FootprintBytes, func() error {
		p := h.NewProber()
		for pass := 0; pass < passes; pass++ {
			for _, bs := range splits {
				if _, err := p.AverageRFOfSplits(bs, core.Plain); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return m, 1, m.Err
}

func (c *Config) runBFHRF(engine Engine, src *collection.File, path string, ts *taxa.Set) (memprof.Measurement, float64, error) {
	qsrc, err := collection.OpenFile(path)
	if err != nil {
		return memprof.Measurement{}, 1, err
	}
	defer qsrc.Close()
	m := memprof.Measure(func() error {
		h, err := core.Build(src, ts, core.BuildOptions{
			Workers:         workersOf(engine),
			RequireComplete: true,
		})
		if err != nil {
			return err
		}
		_, err = h.AverageRF(qsrc, core.QueryOptions{
			Workers:         workersOf(engine),
			RequireComplete: true,
		})
		return err
	})
	return m, 1, m.Err
}
