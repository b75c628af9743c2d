package core

import (
	"math/bits"
	"slices"

	"repro/internal/bipart"
	"repro/internal/bitset"
)

// Topology fingerprints: a 128-bit identity of a query tree's canonical
// bipartition set, the key of the query-side result cache. Two query
// trees get the same fingerprint exactly when they induce the same set of
// canonical bipartitions — i.e. when they are the same unrooted topology
// over the catalogue, regardless of serialization order, rooting, or the
// order taxa appear in the Newick text. (Relabeling taxa changes the
// bipartition set and therefore the fingerprint, as it must: a relabeled
// tree has different RF distances.)
//
// Construction: each bipartition carries its canonical mask words' hash
// under the open-addressing table's hashing rule (bitset.HashWord /
// bitset.HashWords by key width — see bipart.Bipartition.Hash), computed
// once at extraction; the per-bipartition hashes are sorted (this is what
// makes the digest order-invariant), and the sorted sequence is folded
// into two independently seeded MixHash chains. The hash pass therefore
// reads only the contiguous bipartition slice, never the
// pointer-scattered mask words. Collisions between differing bipartition
// sets require either a 64-bit word-hash collision between two distinct
// bipartitions or a simultaneous collision of both 64-bit fold chains;
// FuzzFingerprint hunts for both on hostile inputs.

// TopoKey is the 128-bit topology fingerprint of a bipartition set.
type TopoKey struct {
	Hi, Lo uint64
}

// topoSeedLo/Hi seed the two fold chains. The low chain reuses the
// HashWords seed; the high chain uses a distinct odd constant and sees
// each element rotated, so the chains never agree by construction.
const (
	topoSeedLo = 0x9e3779b97f4a7c15
	topoSeedHi = 0xc2b2ae3d27d4eb4f
)

// fingerprinter computes TopoKeys with reusable scratch; like Prober it
// is single-goroutine state.
type fingerprinter struct {
	hs     []uint64
	sorted []uint64
	bucket [257]int32
}

// key fingerprints one extracted bipartition set. It equals
// TopologyFingerprint(bs) exactly; the only difference is the sort: a
// counting-sort scatter on the top hash byte plus insertion sort within
// each bucket run, because pdqsort's partition branches mispredict heavily on fresh random hashes, tripling
// the per-query cost of the cache-hit path.
func (f *fingerprinter) key(bs []bipart.Bipartition) TopoKey {
	hs := f.hs[:0]
	for _, b := range bs {
		hs = append(hs, b.Hash())
	}
	f.hs = hs
	return foldSortedTopoKey(f.sortHashes())
}

// fpRadixMax bounds the counting-sort path: beyond it the 256 buckets run
// deep enough that the comparison sort wins back.
const fpRadixMax = 2048

// sortHashes sorts f.hs into f.sorted (f.hs is left untouched) and
// returns the sorted slice.
func (f *fingerprinter) sortHashes() []uint64 {
	hs := f.hs
	n := len(hs)
	if cap(f.sorted) < n {
		f.sorted = make([]uint64, n)
	}
	s := f.sorted[:n]
	if n > fpRadixMax {
		copy(s, hs)
		slices.Sort(s)
		return s
	}
	// Bucket count tracks n so the fixed costs (counter clear, prefix
	// sum, run walk) stay proportional to the work: 64 buckets suffice
	// below 128 elements (≈1.5 per run), 256 above.
	nb, shift := 64, 58
	if n > 128 {
		nb, shift = 256, 56
	}
	bucket := f.bucket[:nb+1]
	for i := range bucket {
		bucket[i] = 0
	}
	for _, h := range hs {
		bucket[h>>shift]++
	}
	sum := int32(0)
	for i := 0; i <= nb; i++ {
		c := bucket[i]
		bucket[i] = sum
		sum += c
	}
	for _, h := range hs {
		b := h >> shift
		s[bucket[b]] = h
		bucket[b]++
	}
	// bucket[b] now holds the end of bucket b's run; insertion-sort each.
	start := int32(0)
	for b := 0; b < nb; b++ {
		end := bucket[b]
		run := s[start:end]
		for i := 1; i < len(run); i++ {
			h := run[i]
			j := i - 1
			for j >= 0 && run[j] > h {
				run[j+1] = run[j]
				j--
			}
			run[j+1] = h
		}
		start = end
	}
	return s
}

// TopologyFingerprint returns the topology fingerprint of an extracted
// bipartition set. The allocation-free path for repeated queries is a
// Prober with a cache attached; this entry point serves one-shot callers
// (the distributed coordinator fingerprints each query tree once).
func TopologyFingerprint(bs []bipart.Bipartition) TopoKey {
	var f fingerprinter
	return f.key(bs)
}

// foldTopoKey sorts the per-bipartition hashes in place and folds them
// into the two chains. Sorting makes the digest independent of the order
// bipartitions were extracted in — two serializations of one topology
// emit the same set in different orders.
func foldTopoKey(hs []uint64) TopoKey {
	slices.Sort(hs)
	return foldSortedTopoKey(hs)
}

// foldSortedTopoKey folds an already-sorted hash sequence into the two
// chains.
func foldSortedTopoKey(hs []uint64) TopoKey {
	lo := uint64(topoSeedLo) ^ uint64(len(hs))
	hi := uint64(topoSeedHi) ^ (uint64(len(hs)) * topoSeedLo)
	for _, h := range hs {
		lo = bitset.MixHash(lo, h)
		hi = bitset.MixHash(hi, bits.RotateLeft64(h, 32))
	}
	return TopoKey{Hi: bitset.FinishHash(hi), Lo: bitset.FinishHash(lo)}
}
