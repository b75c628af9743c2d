package core

import (
	"repro/internal/bfhtable"
	"repro/internal/bipart"
	"repro/internal/taxa"
)

// This file holds the build-phase plumbing shared by Build's worker pool
// and BuildSplits: backend resolution, the per-worker accumulator, and the
// final fold into the hash.

// autoSuccinctKeyBytes is the raw key width (wordsPerKey*8) from which
// BackendAuto prefers the succinct backend: at 256 bytes per key
// (catalogues past ~2000 taxa) the open-addressing arena dominates the
// heap and the compressed arena's ~10–20× smaller keys buy far more than
// the encode-per-probe costs.
const autoSuccinctKeyBytes = 256

// resolveBackendFor picks the concrete engine for the build options over
// a catalogue of nTaxa taxa.
func (o BuildOptions) resolveBackendFor(nTaxa int) Backend {
	if o.Backend == BackendAuto {
		if ((nTaxa+63)/64)*8 >= autoSuccinctKeyBytes {
			return BackendSuccinct
		}
		return BackendOpenAddressing
	}
	return o.Backend
}

// shardCount picks the table shard count: explicit HashShards,
// else one shard per build worker so worker-local tables merge with full
// shard parallelism (bfhtable clamps to a power of two in [1, 256]).
func (o BuildOptions) shardCount(workers int) int {
	if o.HashShards > 0 {
		return o.HashShards
	}
	return workers
}

// buildAccum is one build worker's accumulator: a private sharded table
// of the hash's engine, plus the tallies folded into the hash once at the
// end. No locks anywhere on the insert path.
type buildAccum struct {
	tbl      store
	weighted bool
	lenSum   float64
	trees    int
	bips     int
	_        [64]byte // lenSum is written per split: keep it off the next worker's cache lines
}

// newBuildAccum returns a worker accumulator on backend b.
func newBuildAccum(b Backend, ts *taxa.Set, shards int) *buildAccum {
	return &buildAccum{tbl: newStore(b, ts, shards), weighted: true}
}

// add folds one extracted tree's bipartitions.
func (a *buildAccum) add(bs []bipart.Bipartition) {
	a.trees++
	a.bips += len(bs)
	for _, b := range bs {
		length := 0.0
		if b.HasLength {
			length = b.Length
		} else {
			a.weighted = false
		}
		a.tbl.Add(b.Words(), uint32(b.Size()), length)
		a.lenSum += length
	}
}

// finishBuild merges every worker accumulator into the hash,
// shard-parallel. A merged succinct table is frozen here — the one point
// where the whole key population exists, so the shared-prefix dictionary
// is minted once, deterministically. Returns the total bipartition
// instances folded, for the build metrics.
func (h *FreqHash) finishBuild(accums []*buildAccum) int {
	bips := 0
	parts := make([]store, 0, len(accums))
	for _, a := range accums {
		h.numTrees += a.trees
		h.sum += uint64(a.bips)
		h.lenSum += a.lenSum
		bips += a.bips
		if !a.weighted {
			h.weighted = false
		}
		parts = append(parts, a.tbl)
	}
	h.tbl = mergeStores(parts)
	freeze(h.tbl)
	return bips
}

// mergeStores consumes same-engine worker tables into one.
func mergeStores(parts []store) store {
	switch parts[0].(type) {
	case *bfhtable.SuccinctTable:
		ts := make([]*bfhtable.SuccinctTable, len(parts))
		for i, p := range parts {
			ts[i] = p.(*bfhtable.SuccinctTable)
		}
		return bfhtable.MergeSuccinct(ts)
	default:
		ts := make([]*bfhtable.Table, len(parts))
		for i, p := range parts {
			ts[i] = p.(*bfhtable.Table)
		}
		return bfhtable.Merge(ts)
	}
}

// freeze mints a succinct table's shared-prefix dictionary over its full
// key population; open-addressing tables have nothing to freeze.
func freeze(s store) {
	if st, ok := s.(*bfhtable.SuccinctTable); ok {
		st.Freeze()
	}
}
