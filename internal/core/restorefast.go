package core

import (
	"fmt"

	"repro/internal/bfhtable"
)

// Zero-copy restore: adopt a table whose shard storage was installed
// straight from snapshot bytes (internal/bfhsnap) instead of folding
// entries one by one through a Restorer. The snapshot carries the
// authoritative Σfreq and Σlength totals, so a save/load round trip is
// bit-exact even for weighted sums, whose floating-point value depends on
// accumulation order.

// TotalLengthSum returns Σ branch length over every hashed bipartition
// instance — the weighted counterpart of TotalBipartitions. Snapshots
// persist it so a reload restores the exact float64.
func (h *FreqHash) TotalLengthSum() float64 { return h.lenSum }

// AdoptTable wraps an already-populated open-addressing table as a
// FreqHash. sum and lenSum are the authoritative totals; sum is
// cross-checked against the table's stored frequencies so a snapshot whose
// sections and header disagree is rejected.
func AdoptTable(spec RestoreSpec, tbl *bfhtable.Table, sum uint64, lenSum float64) (*FreqHash, error) {
	if tbl == nil {
		return nil, fmt.Errorf("core: adopt requires a table")
	}
	if spec.Taxa != nil && tbl.WordsPerKey() != wordsPerKey(spec.Taxa) {
		return nil, fmt.Errorf("core: adopted table has %d-word keys, catalogue needs %d", tbl.WordsPerKey(), wordsPerKey(spec.Taxa))
	}
	return adopt(spec, tbl, sum, lenSum)
}

// AdoptSuccinct is AdoptTable for the succinct backend.
func AdoptSuccinct(spec RestoreSpec, tbl *bfhtable.SuccinctTable, sum uint64, lenSum float64) (*FreqHash, error) {
	if tbl == nil {
		return nil, fmt.Errorf("core: adopt requires a table")
	}
	if spec.Taxa != nil && tbl.Width() != spec.Taxa.Len() {
		return nil, fmt.Errorf("core: adopted table is %d taxa wide, catalogue has %d", tbl.Width(), spec.Taxa.Len())
	}
	return adopt(spec, tbl, sum, lenSum)
}

// adopt is the engine-independent half of AdoptTable and AdoptSuccinct.
func adopt(spec RestoreSpec, tbl store, sum uint64, lenSum float64) (*FreqHash, error) {
	if spec.Taxa == nil {
		return nil, fmt.Errorf("core: adopt requires a taxon catalogue")
	}
	if spec.NumTrees <= 0 {
		return nil, fmt.Errorf("core: adopted hash has no trees")
	}
	if got, _ := tbl.Totals(); got != sum {
		return nil, fmt.Errorf("core: adopted table holds %d bipartition instances, header declares %d", got, sum)
	}
	return &FreqHash{
		taxa:     spec.Taxa,
		tbl:      tbl,
		sum:      sum,
		lenSum:   lenSum,
		numTrees: spec.NumTrees,
		weighted: spec.Weighted,
	}, nil
}
