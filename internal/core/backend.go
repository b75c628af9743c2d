package core

import (
	"fmt"
	"math"
	"sync/atomic"

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
	lenSum   int64
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
		if !b.HasLength {
			a.weighted = false
		}
		a.tbl.Add(b.Words(), uint32(b.Size()), b.Quanta)
		a.lenSum += b.Quanta
	}
}

// lenBudget is Σ|length| in quanta over all a hash has folded in or out,
// which bounds every stored length sum: a fold that would take it past
// int64 is refused, so no sum wraps. Build workers share it, hence atomic.
type lenBudget struct{ used atomic.Uint64 }

// take reserves n more quanta, or nothing when that would pass MaxInt64.
func (b *lenBudget) take(n uint64) error {
	for old := b.used.Load(); n <= math.MaxInt64-old; old = b.used.Load() {
		if b.used.CompareAndSwap(old, old+n) {
			return nil
		}
	}
	return fmt.Errorf("summed |branch length| passes %.3g, the int64 range of 1e-9 quanta", math.MaxInt64/bipart.QuantaPerUnit)
}

// absLengths is Σ|Quanta| over bs, or MaxUint64 once it passes MaxInt64.
func absLengths(bs []bipart.Bipartition) uint64 {
	var abs uint64
	for _, b := range bs {
		if abs += absQ(b.Quanta); abs > math.MaxInt64 {
			return math.MaxUint64
		}
	}
	return abs
}

func absQ(q int64) uint64 { return uint64(max(q, -q)) } // |MinInt64| too

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
