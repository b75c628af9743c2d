package experiments

import (
	"fmt"
	"runtime/debug"

	"repro/internal/dataset"
	"repro/internal/memprof"
	"repro/internal/perfjson"
)

// PerfWorkload is one entry of the experiment index that the benchmark
// trajectory tracks: a named data point plus the engines measured on it.
// The ID is the stable key baselines are matched by, so it encodes the
// dataset and its full-scale size, never anything run-dependent.
type PerfWorkload struct {
	ID   string
	Spec dataset.Spec
	// R is the full-scale tree count; the config's scale factor shrinks
	// it at run time exactly as in the paper sweeps.
	R       int
	Engines []Engine
}

// perfEngines are the four engine families of the paper's evaluation; the
// 16-way variants track the same code paths as the 8-way ones, so the
// trajectory measures one representative of each family.
var perfEngines = []Engine{DS, DSMP8, HashRF, BFHRF8}

// avianEngines adds the hash-backend A/B pair (BFHRF-OA vs BFHRF-MAP) to
// the paper families on the avian point: the trajectory's record of the
// open-addressing table's query-phase advantage over the paper's
// dict-based hash (the experiments-side baseline of dict.go).
var avianEngines = []Engine{DS, DSMP8, HashRF, BFHRF8, BFHRFOA, BFHRFMAP}

// hugeTaxaEngines is the succinct-backend ablation pair on the huge-n
// workloads: identical probe passes with raw-word keys (BFHRF-OA) and
// compressed arena keys (BFHRF-SUCC), recording the peak-heap-vs-ns/op
// trade once raw keys are 512+ bytes.
var hugeTaxaEngines = []Engine{BFHRFOA, BFHRFSUCC}

// hugeTaxa4096Engines adds the snapshot A/B pair (BFHRF-LOAD vs
// BFHRF-REBUILD) on the n=4096 point: the trajectory's record of what
// loading a persisted epoch saves over rebuilding from the Newick file —
// the workload where both the build (wide masks) and the saved tables
// (compressed succinct arena) are substantial.
var hugeTaxa4096Engines = []Engine{BFHRFOA, BFHRFSUCC, BFHRFLOAD, BFHRFREBUILD}

// PerfIndex is the experiment index of the benchmark trajectory: one
// point per dataset family, sized so that at the default scale every
// measured operation is tens to hundreds of milliseconds — big enough
// that the comparator's 10% threshold gates code, not scheduler jitter —
// while the whole sweep stays under a minute. The quadratic baselines are
// measured at moderate r (their cost grows as r²); the hash engines get
// an additional large-r point the baselines could not afford. HashRF is
// omitted from the insect workload because it refuses unweighted input
// (§VI.B) — a refusal is not a measurement.
func PerfIndex() []PerfWorkload {
	return []PerfWorkload{
		{ID: "avian-n48-r14446", Spec: dataset.Avian(), R: 14446, Engines: avianEngines},
		{ID: "insect-n144-r10000", Spec: dataset.Insect(), R: 10000, Engines: []Engine{DS, DSMP8, BFHRF8}},
		{ID: "vartaxa-n1000-r1000", Spec: dataset.VariableTaxa(1000), R: 1000, Engines: perfEngines},
		// The huge-n points: raw bipartition keys are 512 and 1024 bytes,
		// so the reference table's key storage dominates the heap and the
		// succinct backend's compressed arena is measured against the
		// open-addressing raw-word arena (see EXPERIMENTS.md, BENCH_0004).
		{ID: "hugetaxa-n4096-r1000", Spec: dataset.HugeTaxa(4096), R: 1000, Engines: hugeTaxa4096Engines},
		{ID: "hugetaxa-n8192-r1000", Spec: dataset.HugeTaxa(8192), R: 1000, Engines: hugeTaxaEngines},
		{ID: "vartrees-n100-r10000", Spec: dataset.VariableTrees(10000), R: 10000, Engines: perfEngines},
		{ID: "vartrees-n100-r50000", Spec: dataset.VariableTrees(50000), R: 50000, Engines: []Engine{HashRF, BFHRF8}},
		// The replicate-heavy point: a repeat-dominated query stream over a
		// high-discordance reference table far larger than cache, where the
		// query-cache A/B pair records the dedupe win (see replicate.go).
		// Only the hash engines run here — the stream's 50k instances are
		// pointless for the quadratic baselines.
		{ID: "replicate-n100-r2500000", Spec: dataset.Replicate(2500000), R: 2500000, Engines: []Engine{BFHRFCACHED, BFHRFNOCACHE}},
	}
}

// PerfSweep measures every workload of the experiment index reps times
// per engine and returns the aggregated benchmark suite. Runs are exact:
// the quadratic baselines' query subsampling is disabled, so the recorded
// nanoseconds are measured, never extrapolated. Provenance fields (tool,
// git commit, timestamp) are left for the caller to stamp — the sweep
// itself stays deterministic apart from the timings.
//
// An engine failure aborts the sweep with an error: a benchmark that
// silently skips a workload would let the comparator's missing-workload
// gate pass vacuously on the next run.
func (c *Config) PerfSweep(reps int) (*perfjson.Suite, error) {
	if reps < 1 {
		reps = 1
	}
	exact := *c
	exact.QueryCap = 0 // qCap <= 0 means "run every query": no extrapolation

	// Flatten the index into cells so repetitions can be interleaved:
	// pass p measures every cell once before any cell gets pass p+1. A
	// transient noise burst (co-tenant, GC of another process, thermal
	// dip) then slows at most one repetition of each cell instead of
	// every repetition of one cell, which is exactly the shape the
	// median/min comparator absorbs. Pass 0 is a discarded warmup that
	// settles the page cache, CPU frequency, and heap before anything is
	// recorded.
	type cell struct {
		w  PerfWorkload
		e  Engine
		r  int
		ms []memprof.Measurement
	}
	var cells []cell
	for _, w := range PerfIndex() {
		engines := w.Engines
		if len(c.Engines) > 0 {
			engines = intersectEngines(w.Engines, c.Engines)
		}
		r := c.ScaleTrees(w.R)
		for _, e := range engines {
			cells = append(cells, cell{w: w, e: e, r: r})
		}
	}
	for pass := 0; pass <= reps; pass++ {
		for i := range cells {
			cl := &cells[i]
			if pass == 1 {
				c.logf("perf %-22s %-8s r=%-6d reps=%d", cl.w.ID, cl.e, cl.r, reps)
			}
			m, _, err := exact.MeasurePoint(cl.e, cl.w.Spec, cl.r)
			if err != nil {
				return nil, fmt.Errorf("experiments: perf sweep %s/%s pass %d: %w", cl.w.ID, cl.e, pass, err)
			}
			if pass > 0 {
				cl.ms = append(cl.ms, m)
			}
			// Inter-cell barrier: return the cell's heap to the OS so a
			// large workload (the huge-n tables reach hundreds of MB)
			// cannot bleed allocator state, RSS, or GC pacing into the
			// next cell's measured region.
			debug.FreeOSMemory()
		}
	}

	suite := &perfjson.Suite{Schema: perfjson.SchemaVersion, Scale: c.scale()}
	for _, cl := range cells {
		suite.Records = append(suite.Records,
			perfjson.FromMeasurements(cl.w.ID, string(cl.e), cl.w.Spec.NumTaxa, cl.r, workersOf(cl.e), cl.ms))
	}
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	return suite, nil
}

func intersectEngines(all, want []Engine) []Engine {
	set := make(map[Engine]bool, len(want))
	for _, e := range want {
		set[e] = true
	}
	var out []Engine
	for _, e := range all {
		if set[e] {
			out = append(out, e)
		}
	}
	return out
}
