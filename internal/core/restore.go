package core

import (
	"fmt"

	"repro/internal/bfhtable"
	"repro/internal/taxa"
)

// Hash reassembly from raw entries — the shard merge behind distributed
// failover (internal/distrib). RangeShardRaw walks one hash; a Restorer
// folds those raw (words, entry) pairs into a fresh hash on either
// backend, so shards merge regardless of the engine either side runs.

// RestoreSpec describes the hash being reassembled.
type RestoreSpec struct {
	// Taxa is the catalogue the mask words are encoded over (required).
	Taxa *taxa.Set
	// NumTrees is r for the restored shard.
	NumTrees int
	// Weighted records whether every entry carries meaningful length sums.
	Weighted bool
	// Backend selects the engine, with the same defaulting rules as
	// BuildOptions.
	Backend Backend
	// HashShards overrides the table's shard count (default 1 for a
	// restored table; restores are single-threaded folds).
	HashShards int
}

// Restorer accumulates raw entries into a hash. Not safe for concurrent
// use.
type Restorer struct {
	h  *FreqHash
	nw int
}

// NewRestorer returns a restorer for the spec.
func NewRestorer(spec RestoreSpec) (*Restorer, error) {
	if spec.Taxa == nil {
		return nil, fmt.Errorf("core: restore requires a taxon catalogue")
	}
	shards := spec.HashShards
	if shards <= 0 {
		shards = 1
	}
	b := BuildOptions{Backend: spec.Backend}.resolveBackendFor(spec.Taxa.Len())
	h := &FreqHash{
		taxa:     spec.Taxa,
		tbl:      newStore(b, spec.Taxa, shards),
		numTrees: spec.NumTrees,
		weighted: spec.Weighted,
	}
	return &Restorer{h: h, nw: wordsPerKey(spec.Taxa)}, nil
}

// AddEntry folds one entry: a canonical mask as raw words plus its
// aggregated record. Frequencies accumulate, so entries for the same
// bipartition (e.g. from two merged shards) fold correctly.
func (r *Restorer) AddEntry(words []uint64, e bfhtable.Entry) error {
	if len(words) != r.nw {
		return fmt.Errorf("core: restore entry has %d words, want %d", len(words), r.nw)
	}
	r.h.tbl.AddEntry(words, e)
	r.h.sum += uint64(e.Freq)
	r.h.lenSum += e.LengthSum
	return nil
}

// Finish returns the reassembled hash. A restored succinct table is
// frozen here so its shared-prefix dictionary is rebuilt over the full
// reassembled population (merged shards arrive dictionary-free).
func (r *Restorer) Finish() (*FreqHash, error) {
	if r.h.numTrees <= 0 {
		return nil, fmt.Errorf("core: restored hash has no trees")
	}
	freeze(r.h.tbl)
	return r.h, nil
}
