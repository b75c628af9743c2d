package core

import (
	"fmt"

	"repro/internal/obs"
)

// Runtime metrics of the BFHRF core, published into the obs Default
// registry (served by cmd/bfhrfd's admin /metrics endpoint). The hot
// paths never touch these per bipartition: build and query workers
// accumulate plain local integers and fold them in with one atomic add
// per tree, so the instrumentation stays invisible to the perf gate
// (rfbench -compare BENCH_*.json).
//
// Stage timings land in obs.StageMetric (bfhrf_stage_duration_seconds)
// via the spans opened in Build and AverageRF; the stage names there
// ("bfh.build", "bfh.query") match the workload names of the offline
// benchmark records — see EXPERIMENTS.md, "Runtime metric naming".
var (
	mRefTrees = obs.Counter("bfhrf_ref_trees_total",
		"Reference trees folded into the bipartition frequency hash.")
	mBipartitionsHashed = obs.Counter("bfhrf_bipartitions_hashed_total",
		"Bipartition instances extracted and folded in during BFH builds.")
	mUniqueBipartitions = obs.Gauge("bfhrf_unique_bipartitions",
		"Distinct bipartitions stored by the most recent BFH build.")
	mQueries = obs.Counter("bfhrf_queries_total",
		"Query trees answered by tree-vs-hash comparison.")
	mHashLookups = obs.Counter("bfhrf_hash_lookups_total",
		"Bipartition frequency lookups performed by queries.")
	mHashMisses = obs.Counter("bfhrf_hash_misses_total",
		"Query bipartition lookups that found no reference entry.")
	mHashProbeLength = obs.Histogram("bfhrf_hash_probe_length",
		"Probe-chain displacement of occupied open-addressing slots, observed once per slot after each BFH build (0 = direct hit).",
		[]float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	mHashLoadFactor = obs.Gauge("bfhrf_hash_load_factor",
		"Occupied-slot fraction of the BFH table after the most recent build.")
	mCacheHits = obs.Counter("bfhrf_cache_hit_total",
		"Query trees answered from the topology-fingerprint result cache.")
	mCacheMisses = obs.Counter("bfhrf_cache_miss_total",
		"Query-cache lookups that fell through to a full probe pass.")
	mKeyBytesRaw = obs.Counter("bfhrf_key_bytes_total",
		"Arena bytes held by the succinct backend after the most recent build, by key encoding.",
		obs.L("encoding", "raw"))
	mKeyBytesSparse = obs.Counter("bfhrf_key_bytes_total",
		"Arena bytes held by the succinct backend after the most recent build, by key encoding.",
		obs.L("encoding", "sparse"))
	mKeyBytesCosparse = obs.Counter("bfhrf_key_bytes_total",
		"Arena bytes held by the succinct backend after the most recent build, by key encoding.",
		obs.L("encoding", "cosparse"))
	mKeyBytesDict = obs.Counter("bfhrf_key_bytes_total",
		"Arena bytes held by the succinct backend after the most recent build, by key encoding.",
		obs.L("encoding", "dict"))
	mSuccinctProbeLength = obs.Histogram("bfhrf_succinct_bucket_probe_length",
		"Probe-chain displacement of occupied succinct-backend slots, observed once per slot after each BFH build (0 = direct hit; misses along the chain are filtered by the packed (bucket, length) header).",
		[]float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
)

// SpanBuild and SpanQuery are the core's stage names in obs.StageMetric.
const (
	SpanBuild = "bfh.build"
	SpanQuery = "bfh.query"
)

// recordBuild publishes one completed build's tallies. The table health
// metrics (probe-length histograms, load factor, succinct key-byte
// composition) are sampled here, once per build over the finished table —
// the insert and lookup hot paths stay untouched.
func recordBuild(h *FreqHash, bipartitions int) {
	mRefTrees.Add(uint64(h.numTrees))
	mBipartitionsHashed.Add(uint64(bipartitions))
	mUniqueBipartitions.Set(float64(h.UniqueBipartitions()))
	mHashLoadFactor.Set(h.tbl.LoadFactor())
	probeLengths := mHashProbeLength
	if st := h.Succinct(); st != nil {
		probeLengths = mSuccinctProbeLength
		raw, sparse, cosparse, dict := st.KeyByteTotals()
		mKeyBytesRaw.Add(uint64(raw))
		mKeyBytesSparse.Add(uint64(sparse))
		mKeyBytesCosparse.Add(uint64(cosparse))
		mKeyBytesDict.Add(uint64(dict))
	}
	h.tbl.ProbeLengths(func(d int) {
		probeLengths.Observe(float64(d))
	})
}

// annotateBuildSpan attaches the finished build's identity to its trace
// span: backend, size, and the reference-collection fingerprint that ties
// the trace to checkpoint and cache diagnostics.
func annotateBuildSpan(span *obs.Span, h *FreqHash) {
	if !span.Recorded() {
		return
	}
	span.SetAttr("backend", h.Backend().String())
	span.SetAttr("trees", h.NumTrees())
	span.SetAttr("unique", h.UniqueBipartitions())
	span.SetAttr("fingerprint", fmt.Sprintf("%016x", h.Fingerprint()))
}

// RecordQueries publishes query-side tallies: queries answered, frequency
// lookups performed, and lookups that missed. Exported so the distributed
// worker (internal/distrib), which answers queries against the same hash
// outside AverageRF, feeds the same counters.
func RecordQueries(queries, lookups, misses int) {
	if queries > 0 {
		mQueries.Add(uint64(queries))
	}
	if lookups > 0 {
		mHashLookups.Add(uint64(lookups))
	}
	if misses > 0 {
		mHashMisses.Add(uint64(misses))
	}
}
