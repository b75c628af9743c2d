package core

import (
	"fmt"

	"repro/internal/bipart"
	"repro/internal/tree"
)

// Incremental maintenance of the frequency hash. Because the BFH stores
// exact per-bipartition frequencies, adding or removing a reference tree
// is a handful of counter updates — no rebuild, no other engine supports
// this. Useful for growing collections (e.g. posterior samples arriving
// from an MCMC run) and for leave-one-out analyses. Both backends keep
// exhausted keys as keyed tombstones (probe chains stay intact; a later
// AddTree revives the slot).

// AddTree folds one more reference tree into the hash (r increases by 1).
func (h *FreqHash) AddTree(t *tree.Tree, filter bipart.Filter, requireComplete bool) error {
	bs, err := h.extractFor(t, filter, requireComplete)
	if err != nil {
		return err
	}
	h.AddSplits(bs)
	return nil
}

// AddSplits is AddTree for a tree already reduced to its canonical split
// set — the fold a distributed shard runs on the split words its
// coordinator ships (internal/distrib). The hash copies what it keeps,
// so bs may be reused once AddSplits returns.
func (h *FreqHash) AddSplits(bs []bipart.Bipartition) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range bs {
		length := 0.0
		if b.HasLength {
			length = b.Length
		} else {
			h.weighted = false
		}
		h.tbl.Add(b.Words(), uint32(b.Size()), length)
		h.sum++
		h.lenSum += length
	}
	h.numTrees++
	h.icTable, h.icSum = nil, 0
	mRefTrees.Inc()
	mBipartitionsHashed.Add(uint64(len(bs)))
	mUniqueBipartitions.Set(float64(h.UniqueBipartitions()))
}

// RemoveTree subtracts a previously added reference tree (r decreases by
// 1). It is the caller's responsibility that the tree was in fact part of
// the collection; removing a tree that was never added corrupts the
// frequencies, and the method returns an error when that is detectable
// (a bipartition frequency would go negative).
func (h *FreqHash) RemoveTree(t *tree.Tree, filter bipart.Filter, requireComplete bool) error {
	bs, err := h.extractFor(t, filter, requireComplete)
	if err != nil {
		return err
	}
	return h.RemoveSplits(bs)
}

// RemoveSplits is RemoveTree for a tree already reduced to its canonical
// split set. On error the hash is left as it was.
func (h *FreqHash) RemoveSplits(bs []bipart.Bipartition) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.numTrees == 0 {
		return fmt.Errorf("core: RemoveTree on an empty hash")
	}
	// Validate first so the hash is never left half-updated.
	for _, b := range bs {
		if h.entryOf(b).Freq == 0 {
			return fmt.Errorf("core: RemoveTree: bipartition %s was never in the hash", b)
		}
	}
	for _, b := range bs {
		length := 0.0
		if b.HasLength {
			length = b.Length
		}
		h.tbl.Dec(b.Words(), length)
		h.lenSum -= length
		h.sum--
	}
	h.numTrees--
	h.icTable, h.icSum = nil, 0
	return nil
}

func (h *FreqHash) extractFor(t *tree.Tree, filter bipart.Filter, requireComplete bool) ([]bipart.Bipartition, error) {
	ex := &bipart.Extractor{
		Taxa:            h.taxa,
		RequireComplete: requireComplete,
		Filter:          filter,
	}
	return ex.Extract(t)
}
