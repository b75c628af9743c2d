package core

import (
	"fmt"

	"repro/internal/taxa"
)

// RestoreSpec describes a hash being reassembled from snapshot storage
// (AdoptTable, AdoptSuccinct).
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
}

// Merge folds two partial hashes over the same taxon catalogue into a new
// one — the shard merge behind distributed failover (internal/distrib):
// frequencies, length sums and tree counts add. The result keeps a's
// backend and shard count whatever engine b runs, and is weighted only
// if every input holding trees is. A succinct result is frozen, so its
// dictionary covers the merged population.
func Merge(a, b *FreqHash) (*FreqHash, error) {
	if !a.taxa.Equal(b.taxa) {
		return nil, fmt.Errorf("core: cannot merge hashes over different catalogues (%d vs %d taxa)", a.taxa.Len(), b.taxa.Len())
	}
	h := &FreqHash{
		taxa:     a.taxa,
		tbl:      newStore(a.Backend(), a.taxa, a.NumShards()),
		numTrees: a.numTrees + b.numTrees,
		weighted: true,
	}
	for _, src := range []*FreqHash{a, b} {
		h.weighted = h.weighted && (src.weighted || src.numTrees == 0)
		var err error
		src.tbl.Range(func(words []uint64, e entry) bool {
			if err = h.lenAbs.take(absQ(e.LengthSum)); err == nil {
				h.tbl.AddEntry(words, e)
				h.sum += uint64(e.Freq)
				h.lenSum += e.LengthSum
			}
			return err == nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: merge: %w", err)
		}
	}
	if h.numTrees <= 0 {
		return nil, fmt.Errorf("core: merged hash has no trees")
	}
	freeze(h.tbl)
	return h, nil
}
