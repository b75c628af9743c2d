// Package bfhtable is the zero-allocation storage engine behind the
// bipartition frequency hash (paper §V, Algorithm 2): a sharded
// open-addressing hash table keyed directly on a bipartition's canonical
// []uint64 mask words.
//
// The legacy backend pays a heap-allocated string key per bipartition on
// every insert and every lookup (bipart.Key() → map[string]entry) plus a
// single-threaded merge of worker-local maps. This table removes both
// costs:
//
//   - Keys are the mask words themselves, hashed with bitset.HashWords
//     (bitset.HashWord on one-word keys) and stored inline in a flat
//     per-shard word arena — no string is ever materialized, and a lookup
//     touches one cache line of hashes before it ever compares words.
//   - The table is hash-partitioned into K shards (the top bits of the
//     word hash select the shard, the low bits the slot). Build workers
//     each own a private K-sharded table, so inserts are lock-free; Merge
//     then folds worker tables shard-by-shard with one goroutine per
//     shard, replacing the serial map merge with K independent merges.
//
// After Merge (or a single-owner build) the table is immutable unless the
// owner mutates it, so any number of readers may Lookup concurrently
// without synchronization — exactly the build-once/query-many contract of
// the BFH.
package bfhtable

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/bitset"
)

// Entry is the per-bipartition record: the reference frequency, the
// popcount of the canonical mask (kept so size-dependent variants never
// decode keys), and the accumulated inducing-edge length for weighted RF.
type Entry struct {
	Freq      uint32
	Size      uint32
	LengthSum float64
}

// minShardCap is the initial slot count of a non-empty shard. Power of
// two, like every capacity in this package.
const minShardCap = 8

// maxShards bounds the shard count; beyond this, per-shard fixed costs
// (empty arenas, merge goroutines) outweigh partitioning wins.
const maxShards = 256

// shard is one open-addressing sub-table with linear probing. Slot i's key
// words live at words[i*nw : (i+1)*nw]; hashes[i] == 0 marks an empty slot
// (neither bitset.HashWords nor bitset.HashWord ever returns 0).
type shard struct {
	mask    uint64 // len(hashes) - 1
	hashes  []uint64
	words   []uint64
	entries []Entry
	used    int // occupied slots, including Freq==0 tombstones
	live    int // slots with Freq > 0
}

// Table is the sharded open-addressing frequency table.
type Table struct {
	shards     []shard
	shardShift uint // shard index = hash >> shardShift; 64 means 1 shard
	nw         int  // words per key
}

// New returns an empty table for keys of wordsPerKey words, partitioned
// into the given shard count (rounded up to a power of two and clamped to
// [1, 256]; values <= 1 select a single shard).
func New(wordsPerKey, shards int) *Table {
	if wordsPerKey < 0 {
		panic(fmt.Sprintf("bfhtable: negative words per key %d", wordsPerKey))
	}
	s := nextPow2(shards)
	if s < 1 {
		s = 1
	}
	if s > maxShards {
		s = maxShards
	}
	t := &Table{shards: make([]shard, s), nw: wordsPerKey}
	t.shardShift = uint(64 - bits.TrailingZeros64(uint64(s)))
	return t
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// WordsPerKey returns the fixed key width in words.
func (t *Table) WordsPerKey() int { return t.nw }

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.shards) }

// shardOf selects the shard by the hash's top bits, so it is independent
// of the low bits that pick the slot within the shard.
func (t *Table) shardOf(h uint64) *shard {
	if t.shardShift >= 64 {
		return &t.shards[0]
	}
	return &t.shards[h>>t.shardShift]
}

// Len returns the number of live entries (Freq > 0).
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].live
	}
	return n
}

// ShardLen returns the number of live entries in one shard.
func (t *Table) ShardLen(s int) int { return t.shards[s].live }

// FootprintBytes returns the table's resident size — the hash, key-arena,
// and entry arrays across all shards. Probe-path heuristics use it to
// judge whether scattered probes will thrash the CPU cache or the whole
// table is cache-resident anyway.
func (t *Table) FootprintBytes() int64 {
	const entryBytes = int64(unsafe.Sizeof(Entry{}))
	var b int64
	for i := range t.shards {
		s := &t.shards[i]
		b += int64(len(s.hashes))*8 + int64(len(s.words))*8 + int64(len(s.entries))*entryBytes
	}
	return b
}

// key returns slot i's words.
func (s *shard) key(i int, nw int) []uint64 {
	return s.words[i*nw : i*nw+nw]
}

// hashOf is the table's one hashing rule: the cheap inlinable HashWord on
// one-word keys, the generic multi-word mix otherwise. Every operation —
// insert, probe, merge — routes through it, so all tables of the same
// width agree on slots and shard assignment.
func (t *Table) hashOf(words []uint64) uint64 {
	if t.nw == 1 {
		return bitset.HashWord(words[0])
	}
	return bitset.HashWords(words)
}

// findSlot probes for h/words, returning the matching or first empty slot.
// The caller guarantees the shard has at least one empty slot.
func (s *shard) findSlot(h uint64, words []uint64, nw int) int {
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return int(i)
		}
		if sh == h && bitset.EqualWords(s.key(int(i), nw), words) {
			return int(i)
		}
		i = (i + 1) & s.mask
	}
}

// grow doubles the shard's capacity, re-inserting by stored hash. Keys are
// copied arena-to-arena; no hashing is repeated.
func (s *shard) grow(nw int) {
	oldHashes, oldWords, oldEntries := s.hashes, s.words, s.entries
	cap := 2 * len(oldHashes)
	if cap < minShardCap {
		cap = minShardCap
	}
	s.hashes = make([]uint64, cap)
	s.words = make([]uint64, cap*nw)
	s.entries = make([]Entry, cap)
	s.mask = uint64(cap - 1)
	for i, h := range oldHashes {
		if h == 0 {
			continue
		}
		j := s.findSlot(h, oldWords[i*nw:i*nw+nw], nw)
		s.hashes[j] = h
		copy(s.key(j, nw), oldWords[i*nw:i*nw+nw])
		s.entries[j] = oldEntries[i]
	}
}

// ensure makes room for one more occupied slot, growing past the 3/4 load
// bound (linear probing degrades sharply beyond it).
func (s *shard) ensure(nw int) {
	if len(s.hashes) == 0 || 4*(s.used+1) > 3*len(s.hashes) {
		s.grow(nw)
	}
}

// upsert returns the slot for h/words, inserting the key if absent.
func (s *shard) upsert(h uint64, words []uint64, nw int) int {
	s.ensure(nw)
	i := s.findSlot(h, words, nw)
	if s.hashes[i] == 0 {
		s.hashes[i] = h
		copy(s.key(i, nw), words)
		s.used++
	}
	return i
}

// Add folds one bipartition occurrence: Freq++, Size recorded, LengthSum
// accumulated (pass 0 for unweighted input). words must hold exactly
// WordsPerKey words; they are copied into the arena on first insertion, so
// the caller may reuse the slice.
func (t *Table) Add(words []uint64, size uint32, length float64) {
	h := t.hashOf(words)
	s := t.shardOf(h)
	i := s.upsert(h, words, t.nw)
	e := &s.entries[i]
	if e.Freq == 0 {
		s.live++
	}
	e.Freq++
	e.Size = size
	e.LengthSum += length
}

// AddEntry folds a whole pre-aggregated entry (merge and restore paths):
// frequencies and length sums add, the size is recorded.
func (t *Table) AddEntry(words []uint64, e Entry) {
	h := t.hashOf(words)
	s := t.shardOf(h)
	i := s.upsert(h, words, t.nw)
	se := &s.entries[i]
	if se.Freq == 0 && e.Freq > 0 {
		s.live++
	}
	se.Freq += e.Freq
	se.Size = e.Size
	se.LengthSum += e.LengthSum
}

// Lookup probes for words, returning the stored entry and whether a live
// entry exists. It performs no allocation and takes no lock; concurrent
// Lookups are safe as long as no mutation is in flight.
func (t *Table) Lookup(words []uint64) (Entry, bool) {
	if t.nw == 1 {
		return t.Lookup1(words[0])
	}
	return t.LookupHashed(t.hashOf(words), words)
}

// Lookup1 is Lookup for the one-word-key case (catalogues of at most 64
// taxa, a single mask word): no key slicing and no EqualWords call —
// hash, slot compare, and word compare are all straight-line. Exposed so
// the query fold can skip the width dispatch per probe; calling it on a
// table of another width is a programming error (it reads word 0 only).
func (t *Table) Lookup1(w uint64) (Entry, bool) {
	return t.Lookup1Hashed(bitset.HashWord(w), w)
}

// LookupHashed is Lookup with the key's hash supplied by the caller
// instead of recomputed — the probe path for callers that carry the
// precomputed bipart.Bipartition.Hash. h must be the table's hashing rule
// applied to words (hashOf); any other value silently misses.
func (t *Table) LookupHashed(h uint64, words []uint64) (Entry, bool) {
	s := t.shardOf(h)
	if s.used == 0 {
		return Entry{}, false
	}
	nw := t.nw
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return Entry{}, false
		}
		if sh == h && bitset.EqualWords(s.key(int(i), nw), words) {
			e := s.entries[i]
			return e, e.Freq > 0
		}
		i = (i + 1) & s.mask
	}
}

// Lookup1Hashed is LookupHashed for the one-word-key case; like Lookup1
// it reads word 0 only and skips the EqualWords call.
func (t *Table) Lookup1Hashed(h uint64, w uint64) (Entry, bool) {
	s := t.shardOf(h)
	if s.used == 0 {
		return Entry{}, false
	}
	hashes, words := s.hashes, s.words
	i := h & s.mask
	for {
		sh := hashes[i]
		if sh == 0 {
			return Entry{}, false
		}
		if sh == h && words[i] == w {
			e := s.entries[i]
			return e, e.Freq > 0
		}
		i = (i + 1) & s.mask
	}
}

// Dec subtracts one occurrence of words, removing length from its
// LengthSum. A key whose frequency reaches 0 stays in the table as a
// keyed tombstone — probe chains stay intact and a later Add revives it —
// but no longer counts as live. Dec reports whether a live entry existed.
func (t *Table) Dec(words []uint64, length float64) bool {
	h := t.hashOf(words)
	s := t.shardOf(h)
	if s.used == 0 {
		return false
	}
	nw := t.nw
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return false
		}
		if sh == h && bitset.EqualWords(s.key(int(i), nw), words) {
			e := &s.entries[i]
			if e.Freq == 0 {
				return false
			}
			e.Freq--
			e.LengthSum -= length
			if e.Freq == 0 {
				e.LengthSum = 0 // shed float dust so a revived entry restarts clean
				s.live--
			}
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Range calls fn for every live entry, shard by shard in slot order. The
// words slice is the arena's storage: valid only during the call and never
// to be mutated. fn returning false stops the iteration.
func (t *Table) Range(fn func(words []uint64, e Entry) bool) {
	for s := range t.shards {
		if !t.RangeShard(s, fn) {
			return
		}
	}
}

// RangeShard is Range over a single shard; it reports whether iteration
// ran to completion (false when fn stopped it).
func (t *Table) RangeShard(s int, fn func(words []uint64, e Entry) bool) bool {
	sh := &t.shards[s]
	for i, h := range sh.hashes {
		if h == 0 || sh.entries[i].Freq == 0 {
			continue
		}
		if !fn(sh.key(i, t.nw), sh.entries[i]) {
			return false
		}
	}
	return true
}

// Merge folds worker-local tables into one, in parallel across shards:
// shard s of the result is built by a single goroutine folding shard s of
// every part, so no lock is taken anywhere. All parts must share words-
// per-key and shard count (they do, coming from one build's workers).
// Merge consumes the parts: each part shard is emptied as soon as it has
// been folded, capping the build's transient peak memory (with more than
// one part; a single part is returned as-is).
func Merge(parts []*Table) *Table {
	if len(parts) == 0 {
		panic("bfhtable: Merge of no tables")
	}
	nw, ns := parts[0].nw, len(parts[0].shards)
	for _, p := range parts[1:] {
		if p.nw != nw || len(p.shards) != ns {
			panic(fmt.Sprintf("bfhtable: Merge shape mismatch: (%d words, %d shards) vs (%d, %d)",
				nw, ns, p.nw, len(p.shards)))
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := New(nw, ns)
	var wg sync.WaitGroup
	for s := 0; s < ns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			os := &out.shards[s]
			total := 0
			for _, p := range parts {
				total += p.shards[s].used
			}
			if total == 0 {
				return
			}
			// Presize so the fold never grows: next power of two with
			// load below 3/4 even if no keys are shared between parts.
			cap := nextPow2(total*4/3 + 1)
			if cap < minShardCap {
				cap = minShardCap
			}
			os.hashes = make([]uint64, cap)
			os.words = make([]uint64, cap*nw)
			os.entries = make([]Entry, cap)
			os.mask = uint64(cap - 1)
			for _, p := range parts {
				ps := &p.shards[s]
				for i, h := range ps.hashes {
					if h == 0 {
						continue
					}
					j := os.findSlot(h, ps.key(i, nw), nw)
					oe := &os.entries[j]
					if os.hashes[j] == 0 {
						os.hashes[j] = h
						copy(os.key(j, nw), ps.key(i, nw))
						os.used++
					}
					pe := ps.entries[i]
					if oe.Freq == 0 && pe.Freq > 0 {
						os.live++
					}
					oe.Freq += pe.Freq
					oe.Size = pe.Size
					oe.LengthSum += pe.LengthSum
				}
				// The part shard is spent: release its arrays now rather
				// than when the whole part table goes out of scope, so the
				// build's transient peak is the merged table plus the
				// not-yet-folded remainder, not plus every worker table.
				*ps = shard{}
			}
		}(s)
	}
	wg.Wait()
	return out
}

// LoadFactor returns occupied slots over total slots across all shards
// (0 for an empty table) — the bfhrf_hash_load_factor gauge.
func (t *Table) LoadFactor() float64 {
	slots, used := 0, 0
	for i := range t.shards {
		slots += len(t.shards[i].hashes)
		used += t.shards[i].used
	}
	if slots == 0 {
		return 0
	}
	return float64(used) / float64(slots)
}

// ProbeLengths calls fn with the displacement of every occupied slot from
// its home slot (0 = direct hit) — the bfhrf_hash_probe_length histogram.
// A healthy table's displacements concentrate at 0–2.
func (t *Table) ProbeLengths(fn func(displacement int)) {
	for s := range t.shards {
		sh := &t.shards[s]
		for i, h := range sh.hashes {
			if h == 0 {
				continue
			}
			home := h & sh.mask
			fn(int((uint64(i) - home) & sh.mask))
		}
	}
}
