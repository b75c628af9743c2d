// Package bipart implements bipartition extraction and encoding — the data
// type every RF engine in this repository operates on (paper §II.B).
//
// A bipartition is the split of the taxa induced by removing one edge of an
// unrooted tree. It is encoded as an n-bit bitmask vector over a shared
// taxon catalogue, canonically oriented so that the lowest-indexed taxon
// present in the tree sits on the 0 side; the two orientations of a split
// therefore map to a single canonical encoding, and two bipartitions are
// equal iff their encodings are bit-for-bit equal (collision-free).
package bipart

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/newick"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Bipartition is one canonical, immutable split. Mask bits mark the side of
// the split that does not contain the anchor (lowest-indexed) taxon.
type Bipartition struct {
	mask *bitset.Bits
	// hash is the canonical mask's word hash under the open-addressing
	// table's hashing rule, computed once at construction while the words
	// are cache-hot. See Hash.
	hash uint64
	// Length is the length of the inducing edge (for weighted-RF variants)
	// snapped to the 10⁻⁹ grid, and Quanta its exact count of 10⁻⁹, which
	// the hash sums (see Quantize). Valid only when HasLength is true.
	Length    float64
	Quanta    int64
	HasLength bool
}

// QuantaPerUnit is the number of quanta, 10⁻⁹ each, in one unit of length;
// maxLength, just under 2⁶³ quanta, bounds |length| so a count fits int64.
const QuantaPerUnit, maxLength = 1e9, 9.2e9

// Quantize snaps a branch length to the nearest multiple of 10⁻⁹ and
// returns that multiple's count: exact for lengths with at most nine
// fractional digits (below about 2.2×10⁶, where a float64 still holds the
// ninth digit), rounded once, here, for longer ones. A length that is not
// finite, or not below 9.2×10⁹ in magnitude, is an error.
func Quantize(length float64) (int64, error) {
	if !(length < maxLength && length > -maxLength) {
		return 0, fmt.Errorf("bipart: branch length %v is not finite or not below %g in magnitude", length, maxLength)
	}
	return snap(length), nil
}

// snap is Quantize for a length already checked.
func snap(length float64) int64 { return int64(math.RoundToEven(length * QuantaPerUnit)) }

// maskHash is the one hashing rule shared with the open-addressing table
// (bfhtable.Table.hashOf): the cheap inlinable HashWord on one-word masks,
// the generic multi-word mix otherwise. Never 0.
func maskHash(words []uint64) uint64 {
	if len(words) == 1 {
		return bitset.HashWord(words[0])
	}
	return bitset.HashWords(words)
}

// FromMask builds a bipartition from an arbitrary orientation of a split
// mask over a width-n catalogue, canonicalizing in place semantics-safe
// (the input is cloned if it must be complemented). anchor is the index of
// the reference taxon that must end up on the 0 side (pass 0 for complete
// trees).
func FromMask(mask *bitset.Bits, anchor int) Bipartition {
	m := mask
	if m.Test(anchor) {
		m = m.Complement()
	}
	return Bipartition{mask: m, hash: maskHash(m.Words())}
}

// Mask returns the canonical mask. Callers must not mutate it.
func (b Bipartition) Mask() *bitset.Bits { return b.mask }

// Hash returns the canonical mask's word hash under the open-addressing
// table's hashing rule (bitset.HashWord for one-word masks, bitset.HashWords
// otherwise), precomputed at construction. The table's hashed lookups and
// the topology fingerprint read it instead of re-walking the mask words —
// the fingerprint's hash pass then touches only the contiguous bipartition
// slice, never the pointer-scattered word arrays. Never 0.
func (b Bipartition) Hash() uint64 { return b.hash }

// Words returns the canonical mask's backing words — the key-free access
// path of the open-addressing BFH backend, which hashes and stores these
// words directly instead of materializing a string key. The slice is
// shared with the mask; callers must not mutate it.
func (b Bipartition) Words() []uint64 { return b.mask.Words() }

// Key returns the collision-free map key for the bipartition.
func (b Bipartition) Key() string { return b.mask.Key() }

// AppendKey appends the Key() bytes to dst and returns the extended slice,
// allocating only when dst lacks capacity — the scratch-buffer probe path
// of the dict-based hash baseline (internal/experiments).
func (b Bipartition) AppendKey(dst []byte) []byte { return b.mask.AppendKey(dst) }

// CompactKey returns the losslessly compressed collision-free key — the
// paper's §IX future-work memory optimization. Equal bipartitions have
// equal compact keys and distinct ones never collide.
func (b Bipartition) CompactKey() string { return b.mask.CompactKey() }

// AppendCompactKey is AppendKey for the compressed key scheme.
func (b Bipartition) AppendCompactKey(dst []byte) []byte { return b.mask.AppendCompactKey(dst) }

// Size returns the number of taxa on the 1 side of the canonical encoding.
func (b Bipartition) Size() int { return b.mask.Count() }

// SmallSideSize returns min(size, total-size) given the number of taxa
// present in the source tree; useful for size filters that should be
// orientation-independent.
func (b Bipartition) SmallSideSize(total int) int {
	c := b.mask.Count()
	if total-c < c {
		return total - c
	}
	return c
}

// IsTrivial reports whether the split separates fewer than 2 taxa from the
// rest, given the number of taxa present in the source tree. Trivial splits
// (pendant edges) occur in every tree on the same taxa and carry no
// distance information; all engines exclude them, as the paper does.
func (b Bipartition) IsTrivial(total int) bool {
	c := b.mask.Count()
	return c <= 1 || c >= total-1
}

// Equal reports bitwise equality of the canonical encodings.
func (b Bipartition) Equal(o Bipartition) bool { return b.mask.Equal(o.mask) }

// String renders the bitmask with bit 0 rightmost, as in the paper's
// examples.
func (b Bipartition) String() string { return b.mask.String() }

// Compatible reports whether two canonical bipartitions over the same
// catalogue can coexist in one tree. With both masks anchored (the shared
// anchor taxon on the 0 side), the splits are compatible iff the 1-sides
// are nested or disjoint — the fourth classical condition (complement
// containment) would require the anchor on a 1 side and cannot occur.
func Compatible(a, b Bipartition) bool {
	am, bm := a.mask, b.mask
	return !am.Intersects(bm) || am.IsSubsetOf(bm) || bm.IsSubsetOf(am)
}

// MutuallyCompatible reports whether every pair in bs is compatible, i.e.
// the set is realizable as a single tree.
func MutuallyCompatible(bs []Bipartition) bool {
	for i := range bs {
		for j := i + 1; j < len(bs); j++ {
			if !Compatible(bs[i], bs[j]) {
				return false
			}
		}
	}
	return true
}

// Filter selects bipartitions. Filters are the extensibility hook the paper
// demonstrates (§VII.F, bipartition size filtering): they apply identically
// to reference and query bipartitions before any RF computation.
type Filter func(Bipartition) bool

// SizeFilter keeps bipartitions whose smaller side has between min and max
// taxa inclusive, out of total taxa. max <= 0 means unbounded.
func SizeFilter(min, max, total int) Filter {
	return func(b Bipartition) bool {
		s := b.SmallSideSize(total)
		if s < min {
			return false
		}
		if max > 0 && s > max {
			return false
		}
		return true
	}
}

// And composes filters conjunctively; a nil filter passes everything.
func And(filters ...Filter) Filter {
	return func(b Bipartition) bool {
		for _, f := range filters {
			if f != nil && !f(b) {
				return false
			}
		}
		return true
	}
}

// Extractor computes the bipartition set B(T) of trees over a fixed taxon
// catalogue. Extraction is a postorder sweep computing leaf-set masks
// bottom-up: O(n²) in bits, matching the paper's model (O(n) bipartitions,
// each an n-bit vector).
//
// An Extractor reuses internal mask buffers across Extract calls and is
// therefore NOT safe for concurrent use; give each worker goroutine its
// own (as every engine in this repository does).
type Extractor struct {
	Taxa *taxa.Set
	// IncludeTrivial also emits pendant-edge splits. Off by default
	// everywhere, as in the paper.
	IncludeTrivial bool
	// RequireComplete rejects trees that do not cover the entire catalogue.
	// The fixed-n engines (matching the paper's core setting) set this.
	RequireComplete bool
	// Filter, when non-nil, drops bipartitions it rejects.
	Filter Filter
	// ReuseMasks recycles the emitted bipartition masks and the returned
	// slice across Extract calls, making extraction allocation-free in
	// steady state. The returned bipartitions (and their masks) are then
	// valid only until the next Extract call: callers must copy anything
	// they retain (the BFH backends do — the open-addressing table copies
	// words into its arena, the succinct table encodes them into its) and
	// Filter hooks must not hold on to the masks they see. Engines that
	// keep bipartition sets resident (seqrf, consensus) must leave this
	// off.
	ReuseMasks bool

	// pool recycles mask buffers between Extract calls.
	pool []*bitset.Bits
	// seen is the per-call duplicate-leaf scratch, reused across calls.
	seen []bool
	// emitted tracks masks handed out in the previous ReuseMasks Extract,
	// recycled into pool at the start of the next call.
	emitted []*bitset.Bits
	// outBuf is the reused result slice under ReuseMasks.
	outBuf []Bipartition
	// acc is the per-call extraction state; path is Extract's walk
	// stack and scan ExtractNewick's statement scanner.
	acc  accum
	path []treeFrame
	scan newick.Scanner
}

// treeFrame is one open internal node of Extract's walk and the index of
// its next child to visit.
type treeFrame struct {
	nd    *tree.Node
	child int
}

// getMask returns a zeroed width-n mask from the pool.
func (e *Extractor) getMask(n int) *bitset.Bits {
	if k := len(e.pool); k > 0 {
		m := e.pool[k-1]
		e.pool = e.pool[:k-1]
		if m.Width() == n {
			m.Reset()
			return m
		}
	}
	return bitset.New(n)
}

func (e *Extractor) putMask(m *bitset.Bits) { e.pool = append(e.pool, m) }

// resetSeen returns the per-call duplicate-leaf scratch, all false.
func (e *Extractor) resetSeen(n int) []bool {
	if cap(e.seen) < n {
		e.seen = make([]bool, n)
	}
	seen := e.seen[:n]
	clear(seen)
	return seen
}

// NewExtractor returns an extractor over ts requiring complete taxon
// coverage (the paper's fixed-n setting).
func NewExtractor(ts *taxa.Set) *Extractor {
	return &Extractor{Taxa: ts, RequireComplete: true}
}

// Extract returns the bipartitions of t in postorder edge order.
// Each returned bipartition is canonical; trivial splits are excluded
// unless IncludeTrivial is set. One iterative walk feeds the accumulator
// ExtractNewick shares (see accum), so a tree and its Newick text
// extract bit for bit alike. The root never has an edge, parented or not.
func (e *Extractor) Extract(t *tree.Tree) ([]Bipartition, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("bipart: nil tree")
	}
	e.begin()
	path := e.path[:0]
	for nd := t.Root; nd != nil; {
		if nd.IsLeaf() {
			idx, _ := e.Taxa.Index(nd.Name)
			if !e.leaf(idx, nd.Length, nd.HasLength) {
				e.badLeaf(idx, nd.Name)
			}
		} else {
			e.openSubtree()
			path = append(path, treeFrame{nd: nd})
		}
		// Step to the next unvisited child, closing finished subtrees.
		nd = nil
		for len(path) > 0 {
			f := &path[len(path)-1]
			if f.child < len(f.nd.Children) {
				nd = f.nd.Children[f.child]
				f.child++
				break
			}
			e.closeSubtree(f.nd.Length, f.nd.HasLength)
			path = path[:len(path)-1]
		}
	}
	e.path = path
	return e.finish(nil)
}

// MustExtract is Extract but panics on error. For tests.
func (e *Extractor) MustExtract(t *tree.Tree) []Bipartition {
	bs, err := e.Extract(t)
	if err != nil {
		panic(err)
	}
	return bs
}
