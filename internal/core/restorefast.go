package core

import (
	"fmt"

	"repro/internal/bfhtable"
)

// Zero-copy restore: adopt a table whose shard storage was installed
// straight from snapshot bytes (internal/bfhsnap), with no per-entry
// re-insert. The length sums are integers, so the totals re-derived from
// the adopted entries are exactly the saved hash's.

// TotalLengthSum returns Σ branch length, in quanta, over every hashed
// bipartition instance — the weighted counterpart of TotalBipartitions.
func (h *FreqHash) TotalLengthSum() int64 { return h.lenSum }

// AdoptTable wraps an already-populated open-addressing table as a
// FreqHash. sum is the declared instance count, cross-checked against the
// table's stored frequencies so a snapshot whose sections and header
// disagree is rejected.
func AdoptTable(spec RestoreSpec, tbl *bfhtable.Table, sum uint64) (*FreqHash, error) {
	if tbl == nil {
		return nil, fmt.Errorf("core: adopt requires a table")
	}
	if spec.Taxa != nil && tbl.WordsPerKey() != wordsPerKey(spec.Taxa) {
		return nil, fmt.Errorf("core: adopted table has %d-word keys, catalogue needs %d", tbl.WordsPerKey(), wordsPerKey(spec.Taxa))
	}
	return adopt(spec, tbl, sum)
}

// AdoptSuccinct is AdoptTable for the succinct backend.
func AdoptSuccinct(spec RestoreSpec, tbl *bfhtable.SuccinctTable, sum uint64) (*FreqHash, error) {
	if tbl == nil {
		return nil, fmt.Errorf("core: adopt requires a table")
	}
	if spec.Taxa != nil && tbl.Width() != spec.Taxa.Len() {
		return nil, fmt.Errorf("core: adopted table is %d taxa wide, catalogue has %d", tbl.Width(), spec.Taxa.Len())
	}
	return adopt(spec, tbl, sum)
}

// adopt is the engine-independent half of AdoptTable and AdoptSuccinct.
func adopt(spec RestoreSpec, tbl store, sum uint64) (*FreqHash, error) {
	if spec.Taxa == nil {
		return nil, fmt.Errorf("core: adopt requires a taxon catalogue")
	}
	if spec.NumTrees <= 0 {
		return nil, fmt.Errorf("core: adopted hash has no trees")
	}
	got, lenSum, lenAbs := tbl.Totals()
	if got != sum {
		return nil, fmt.Errorf("core: adopted table holds %d bipartition instances, header declares %d", got, sum)
	}
	h := &FreqHash{
		taxa:     spec.Taxa,
		tbl:      tbl,
		sum:      sum,
		lenSum:   lenSum,
		numTrees: spec.NumTrees,
		weighted: spec.Weighted,
	}
	if err := h.lenAbs.take(lenAbs); err != nil {
		return nil, fmt.Errorf("core: adopted table: %w", err)
	}
	return h, nil
}
