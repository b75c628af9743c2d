package bfhtable

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/bitset"
)

// This file implements SuccinctTable, the compressed-key sibling of Table
// for huge-n catalogues. A Table key is the full canonical mask — n/8
// bytes per unique bipartition, which at n=8192 makes the arena dwarf the
// trees themselves. SuccinctTable stores each key in the self-describing
// raw/sparse/cosparse encoding of bitset.AppendWordsKey inside a per-shard
// variable-length byte arena, plus an optional shared-prefix dictionary
// built at Freeze time: biological splits are overwhelmingly shallow or
// deep, so most keys collapse to a handful of varint deltas and common
// clade prefixes collapse further to a 2-byte dictionary reference.
//
// Probing stays open-addressing with linear probing, sharded and hashed
// exactly like Table (the raw-word hash, so callers reuse the
// bipartition's precomputed hash). Each slot additionally carries a packed
// (popcount bucket, encoded length) header word; a probe compares hash,
// then header, and only byte-compares arena keys when both match — keys of
// different cardinality or different encoded size are rejected without
// touching the arena at all.

const (
	// tagDict marks a dictionary-compressed key: the first dictPrefixLen
	// bytes of the plain encoding are replaced by [tagDict, id]. Plain
	// encodings only use tags 0x00–0x02, so the tag spaces are disjoint
	// and the combined encoding stays a bijection on vectors.
	tagDict = 0x03

	// dictPrefixLen is the number of leading plain-encoding bytes one
	// dictionary entry covers. Each dictionary hit saves
	// dictPrefixLen-2 bytes.
	dictPrefixLen = 12

	// dictMaxEntries bounds the dictionary so an id fits one byte.
	dictMaxEntries = 256

	// dictMinCount is the minimum number of keys sharing a prefix before
	// the prefix earns a dictionary slot; a singleton prefix would cost
	// dictionary space without saving arena bytes overall.
	dictMinCount = 2

	// metaLenBits is the width of the encoded-length field in a slot's
	// packed header; the top 8 bits hold the popcount bucket.
	metaLenBits = 24
	maxEncLen   = 1<<metaLenBits - 1
)

// sshard is one open-addressing sub-table over encoded keys. Slot i's key
// bytes live at arena[offs[i] : offs[i]+len] with len taken from meta[i];
// hashes[i] == 0 marks an empty slot.
type sshard struct {
	mask    uint64
	hashes  []uint64
	meta    []uint32 // popcount bucket <<24 | encoded key length
	offs    []uint32
	entries []Entry
	arena   []byte
	used    int // occupied slots, including Freq==0 tombstones
	live    int // slots with Freq > 0
}

// SuccinctTable is the sharded open-addressing frequency table over
// compressed bipartition keys. Build with NewSuccinct + Add (or AddEntry),
// optionally MergeSuccinct worker-local parts, then Freeze once to mint
// the shared-prefix dictionary; after that any number of readers may probe
// concurrently via AppendEncoded + LookupEncoded, exactly the
// build-once/query-many contract of Table.
type SuccinctTable struct {
	shards     []sshard
	shardShift uint
	nw         int              // words per decoded key
	width      int              // catalogue size in bits
	dict       [][]byte         // id → prefix bytes; non-nil once frozen
	dictIDs    map[string]uint8 // prefix → id
	keyBytes   [4]int64         // arena bytes by encoding: raw/sparse/cosparse/dict
	enc        []byte           // owner-only scratch for Add/AddEntry/Dec
}

// NewSuccinct returns an empty succinct table for a catalogue of width
// taxa, partitioned like New (shards rounded to a power of two in
// [1, 256]).
func NewSuccinct(width, shards int) *SuccinctTable {
	if width < 0 {
		panic(fmt.Sprintf("bfhtable: negative width %d", width))
	}
	s := nextPow2(shards)
	if s < 1 {
		s = 1
	}
	if s > maxShards {
		s = maxShards
	}
	t := &SuccinctTable{
		shards: make([]sshard, s),
		nw:     (width + 63) / 64,
		width:  width,
	}
	t.shardShift = uint(64 - bits.TrailingZeros64(uint64(s)))
	return t
}

// Width returns the catalogue size in bits.
func (t *SuccinctTable) Width() int { return t.width }

// WordsPerKey returns the decoded key width in words.
func (t *SuccinctTable) WordsPerKey() int { return t.nw }

// NumShards returns the shard count.
func (t *SuccinctTable) NumShards() int { return len(t.shards) }

// Frozen reports whether Freeze has run (the dictionary exists, possibly
// empty).
func (t *SuccinctTable) Frozen() bool { return t.dict != nil }

// Len returns the number of live entries (Freq > 0).
func (t *SuccinctTable) Len() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].live
	}
	return n
}

// ShardLen returns the number of live entries in one shard.
func (t *SuccinctTable) ShardLen(s int) int { return t.shards[s].live }

// FootprintBytes returns the table's resident size: slot arrays, entry
// arrays, the compressed key arenas, and the dictionary.
func (t *SuccinctTable) FootprintBytes() int64 {
	const entryBytes = int64(unsafe.Sizeof(Entry{}))
	var b int64
	for i := range t.shards {
		s := &t.shards[i]
		b += int64(len(s.hashes))*8 + int64(len(s.meta))*4 + int64(len(s.offs))*4 +
			int64(len(s.entries))*entryBytes + int64(cap(s.arena))
	}
	for _, p := range t.dict {
		b += int64(len(p)) + 16 // prefix bytes + slice header
	}
	return b
}

// KeyByteTotals returns the arena bytes currently stored under each
// encoding — the bfhrf_key_bytes_total{encoding=...} metric source.
func (t *SuccinctTable) KeyByteTotals() (raw, sparse, cosparse, dict int64) {
	return t.keyBytes[0], t.keyBytes[1], t.keyBytes[2], t.keyBytes[3]
}

// shardOf selects the shard by the hash's top bits, identical to Table.
func (t *SuccinctTable) shardOf(h uint64) *sshard {
	if t.shardShift >= 64 {
		return &t.shards[0]
	}
	return &t.shards[h>>t.shardShift]
}

// hashOf is the same one hashing rule as Table: raw-word hashing, so the
// bipartition's precomputed hash routes both backends identically.
func (t *SuccinctTable) hashOf(words []uint64) uint64 {
	if t.nw == 1 {
		return bitset.HashWord(words[0])
	}
	return bitset.HashWords(words)
}

func packMeta(ones, encLen int) uint32 {
	if encLen > maxEncLen {
		panic(fmt.Sprintf("bfhtable: encoded key of %d bytes exceeds the %d-bit length field", encLen, metaLenBits))
	}
	bucket := ones
	if bucket > 255 {
		bucket = 255
	}
	return uint32(bucket)<<metaLenBits | uint32(encLen)
}

// keyAt returns slot i's encoded key bytes.
func (s *sshard) keyAt(i int) []byte {
	off := s.offs[i]
	return s.arena[off : off+s.meta[i]&maxEncLen]
}

// findSlot probes for h/meta/enc, returning the matching or first empty
// slot. Most misses reject on the hash word or the packed header without
// reading arena bytes. The caller guarantees an empty slot exists.
func (s *sshard) findSlot(h uint64, meta uint32, enc []byte) int {
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return int(i)
		}
		if sh == h && s.meta[i] == meta && bytes.Equal(s.keyAt(int(i)), enc) {
			return int(i)
		}
		i = (i + 1) & s.mask
	}
}

// grow doubles the shard's slot arrays, re-placing by stored hash. The
// arena is untouched: offsets and headers travel with their slots, so
// growth never copies or re-encodes a key.
func (s *sshard) grow() {
	oldHashes, oldMeta, oldOffs, oldEntries := s.hashes, s.meta, s.offs, s.entries
	capacity := 2 * len(oldHashes)
	if capacity < minShardCap {
		capacity = minShardCap
	}
	s.hashes = make([]uint64, capacity)
	s.meta = make([]uint32, capacity)
	s.offs = make([]uint32, capacity)
	s.entries = make([]Entry, capacity)
	s.mask = uint64(capacity - 1)
	for i, h := range oldHashes {
		if h == 0 {
			continue
		}
		off := oldOffs[i]
		key := s.arena[off : off+oldMeta[i]&maxEncLen]
		j := s.findSlot(h, oldMeta[i], key)
		s.hashes[j] = h
		s.meta[j] = oldMeta[i]
		s.offs[j] = off
		s.entries[j] = oldEntries[i]
	}
}

func (s *sshard) ensure() {
	if len(s.hashes) == 0 || 4*(s.used+1) > 3*len(s.hashes) {
		s.grow()
	}
}

// upsert returns the slot for the encoded key, inserting it if absent and
// reporting whether it was inserted.
func (s *sshard) upsert(h uint64, meta uint32, enc []byte) (int, bool) {
	s.ensure()
	i := s.findSlot(h, meta, enc)
	if s.hashes[i] != 0 {
		return i, false
	}
	s.hashes[i] = h
	s.meta[i] = meta
	s.offs[i] = uint32(len(s.arena))
	s.arena = append(s.arena, enc...)
	s.used++
	return i, true
}

// appendEncode writes the table's encoding of words (dictionary form when
// frozen and the prefix is in the dictionary) to dst and returns the
// extended slice plus the packed header. It only reads table state, so
// concurrent callers with private dst buffers are safe.
func (t *SuccinctTable) appendEncode(dst []byte, words []uint64) ([]byte, uint32) {
	start := len(dst)
	dst, ones := bitset.AppendWordsKey(dst, words, t.width)
	if len(t.dictIDs) > 0 {
		if enc := dst[start:]; len(enc) >= dictPrefixLen {
			if id, ok := t.dictIDs[string(enc[:dictPrefixLen])]; ok {
				rest := enc[dictPrefixLen:]
				enc[0] = tagDict
				enc[1] = id
				n := copy(enc[2:], rest)
				dst = dst[:start+2+n]
			}
		}
	}
	return dst, packMeta(ones, len(dst)-start)
}

// AppendEncoded is the concurrent probe-side encoder: it appends the
// table's encoding of words to dst and returns the extended slice and the
// packed (bucket, length) header to pass to LookupEncoded. Reusing dst
// across calls makes the query path allocation-free.
func (t *SuccinctTable) AppendEncoded(dst []byte, words []uint64) ([]byte, uint32) {
	return t.appendEncode(dst, words)
}

// encodingIndex classifies an encoded key for the keyBytes totals.
func encodingIndex(tag byte) int {
	if tag > tagDict {
		panic(fmt.Sprintf("bfhtable: unknown key tag %#x", tag))
	}
	return int(tag)
}

// Add folds one bipartition occurrence, exactly as Table.Add. words must
// hold the canonical mask; they are encoded into the arena on first
// insertion, so the caller may reuse the slice. Add is single-owner:
// concurrent mutation is not safe (build workers own private tables).
func (t *SuccinctTable) Add(words []uint64, size uint32, length int64) {
	var meta uint32
	t.enc, meta = t.appendEncode(t.enc[:0], words)
	h := t.hashOf(words)
	s := t.shardOf(h)
	i, inserted := s.upsert(h, meta, t.enc)
	if inserted {
		t.keyBytes[encodingIndex(t.enc[0])] += int64(len(t.enc))
	}
	e := &s.entries[i]
	if e.Freq == 0 {
		s.live++
	}
	e.Freq++
	e.Size = size
	e.LengthSum += length
}

// AddEntry folds a whole pre-aggregated entry (restore paths), exactly as
// Table.AddEntry. Single-owner like Add.
func (t *SuccinctTable) AddEntry(words []uint64, e Entry) {
	var meta uint32
	t.enc, meta = t.appendEncode(t.enc[:0], words)
	h := t.hashOf(words)
	s := t.shardOf(h)
	i, inserted := s.upsert(h, meta, t.enc)
	if inserted {
		t.keyBytes[encodingIndex(t.enc[0])] += int64(len(t.enc))
	}
	se := &s.entries[i]
	if se.Freq == 0 && e.Freq > 0 {
		s.live++
	}
	se.Freq += e.Freq
	se.Size = e.Size
	se.LengthSum += e.LengthSum
}

// LookupEncoded probes for a key previously encoded with AppendEncoded.
// h must be the raw-word hash of the decoded key (the table's hashing
// rule); meta the packed header AppendEncoded returned. No allocation, no
// lock: concurrent lookups are safe while no mutation is in flight.
func (t *SuccinctTable) LookupEncoded(h uint64, enc []byte, meta uint32) (Entry, bool) {
	s := t.shardOf(h)
	if s.used == 0 {
		return Entry{}, false
	}
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return Entry{}, false
		}
		if sh == h && s.meta[i] == meta && bytes.Equal(s.keyAt(int(i)), enc) {
			e := s.entries[i]
			return e, e.Freq > 0
		}
		i = (i + 1) & s.mask
	}
}

// Lookup probes for a canonical mask, encoding into a transient buffer.
// Convenience for tests and cold paths; hot paths carry their own scratch
// through AppendEncoded + LookupEncoded.
func (t *SuccinctTable) Lookup(words []uint64) (Entry, bool) {
	enc, meta := t.appendEncode(make([]byte, 0, 64), words)
	return t.LookupEncoded(t.hashOf(words), enc, meta)
}

// Dec subtracts one occurrence, with Table.Dec's keyed-tombstone
// semantics: a key whose frequency reaches 0 stays in the arena so probe
// chains stay intact and a later Add revives it. Single-owner like Add.
func (t *SuccinctTable) Dec(words []uint64, length int64) bool {
	var meta uint32
	t.enc, meta = t.appendEncode(t.enc[:0], words)
	h := t.hashOf(words)
	s := t.shardOf(h)
	if s.used == 0 {
		return false
	}
	i := h & s.mask
	for {
		sh := s.hashes[i]
		if sh == 0 {
			return false
		}
		if sh == h && s.meta[i] == meta && bytes.Equal(s.keyAt(int(i)), t.enc) {
			e := &s.entries[i]
			if e.Freq == 0 {
				return false
			}
			e.Freq--
			e.LengthSum -= length
			if e.Freq == 0 {
				s.live--
			}
			return true
		}
		i = (i + 1) & s.mask
	}
}

// decodeInto decodes an encoded key (dictionary form included) into words,
// growing and returning the byte scratch used for dictionary reassembly.
func (t *SuccinctTable) decodeInto(words []uint64, enc []byte, scratch []byte) ([]byte, error) {
	if len(enc) > 0 && enc[0] == tagDict {
		if len(enc) < 2 || int(enc[1]) >= len(t.dict) {
			return scratch, fmt.Errorf("bfhtable: corrupt dictionary key")
		}
		scratch = append(scratch[:0], t.dict[enc[1]]...)
		scratch = append(scratch, enc[2:]...)
		return scratch, bitset.DecodeWordsKey(words, scratch, t.width)
	}
	return scratch, bitset.DecodeWordsKey(words, enc, t.width)
}

// Range calls fn for every live entry, shard by shard in slot order. The
// words slice is a per-call scratch reused between invocations: valid only
// during the call and never to be retained or mutated. fn returning false
// stops the iteration.
func (t *SuccinctTable) Range(fn func(words []uint64, e Entry) bool) {
	for s := range t.shards {
		if !t.RangeShard(s, fn) {
			return
		}
	}
}

// RangeShard is Range over a single shard; it reports whether iteration
// ran to completion (false when fn stopped it).
func (t *SuccinctTable) RangeShard(s int, fn func(words []uint64, e Entry) bool) bool {
	sh := &t.shards[s]
	words := make([]uint64, t.nw)
	var scratch []byte
	for i, h := range sh.hashes {
		if h == 0 || sh.entries[i].Freq == 0 {
			continue
		}
		var err error
		scratch, err = t.decodeInto(words, sh.keyAt(i), scratch)
		if err != nil {
			panic(fmt.Sprintf("bfhtable: arena key failed to decode: %v", err))
		}
		if !fn(words, sh.entries[i]) {
			return false
		}
	}
	return true
}

// RangeShardEncoded iterates one shard's live entries handing out the
// stored encoded key bytes instead of decoded words — the snapshot
// serialization path, which ships the compressed arena as-is. The byte
// slice aliases the arena: valid only during the call, never mutated.
func (t *SuccinctTable) RangeShardEncoded(s int, fn func(enc []byte, e Entry) bool) bool {
	sh := &t.shards[s]
	for i, h := range sh.hashes {
		if h == 0 || sh.entries[i].Freq == 0 {
			continue
		}
		if !fn(sh.keyAt(i), sh.entries[i]) {
			return false
		}
	}
	return true
}

// DictEntries returns the frozen dictionary's prefixes (nil before
// Freeze). The slices alias table storage; callers must not mutate them.
func (t *SuccinctTable) DictEntries() [][]byte { return t.dict }

// DecodeKeyWithDict decodes an encoded key produced by a table frozen
// with the given dictionary into dst (wordsFor(width) words) — the
// snapshot restore path, which receives arena bytes and the dictionary
// over the wire without a table in hand. scratch is reused for dictionary
// reassembly and returned possibly grown.
func DecodeKeyWithDict(dst []uint64, enc []byte, dict [][]byte, scratch []byte, width int) ([]byte, error) {
	if len(enc) > 0 && enc[0] == tagDict {
		if len(enc) < 2 || int(enc[1]) >= len(dict) {
			return scratch, fmt.Errorf("bfhtable: dictionary key references missing entry")
		}
		scratch = append(scratch[:0], dict[enc[1]]...)
		scratch = append(scratch, enc[2:]...)
		return scratch, bitset.DecodeWordsKey(dst, scratch, width)
	}
	return scratch, bitset.DecodeWordsKey(dst, enc, width)
}

// Freeze builds the shared-prefix dictionary from the keys currently in
// the table and re-encodes every arena in parallel, one goroutine per
// shard. Call it once, after the build's MergeSuccinct: worker-local parts
// must stay dictionary-free so merge byte-compares agree, and a dictionary
// minted from the full key population compresses better than any
// worker-local view. Freeze is idempotent; inserts after Freeze use the
// frozen dictionary. The dictionary is deterministic for a given key set:
// candidate prefixes are ranked by count, ties broken lexicographically.
func (t *SuccinctTable) Freeze() {
	if t.dict != nil {
		return
	}
	counts := make(map[string]int)
	for si := range t.shards {
		s := &t.shards[si]
		for i, h := range s.hashes {
			if h == 0 {
				continue
			}
			key := s.keyAt(i)
			if len(key) >= dictPrefixLen {
				counts[string(key[:dictPrefixLen])]++
			}
		}
	}
	cands := make([]string, 0, len(counts))
	for p, c := range counts {
		if c >= dictMinCount {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if counts[cands[i]] != counts[cands[j]] {
			return counts[cands[i]] > counts[cands[j]]
		}
		return cands[i] < cands[j]
	})
	if len(cands) > dictMaxEntries {
		cands = cands[:dictMaxEntries]
	}
	t.dict = make([][]byte, len(cands))
	t.dictIDs = make(map[string]uint8, len(cands))
	for id, p := range cands {
		t.dict[id] = []byte(p)
		t.dictIDs[p] = uint8(id)
	}
	if len(cands) == 0 {
		return // frozen (dict non-nil, empty); nothing to re-encode
	}

	var totals [4]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si := range t.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s := &t.shards[si]
			if s.used == 0 {
				return
			}
			var local [4]int64
			arena := make([]byte, 0, len(s.arena))
			for i, h := range s.hashes {
				if h == 0 {
					continue
				}
				key := s.keyAt(i)
				off := len(arena)
				if len(key) >= dictPrefixLen {
					if id, ok := t.dictIDs[string(key[:dictPrefixLen])]; ok {
						arena = append(arena, tagDict, id)
						arena = append(arena, key[dictPrefixLen:]...)
						s.offs[i] = uint32(off)
						s.meta[i] = s.meta[i]&^uint32(maxEncLen) | uint32(len(arena)-off)
						local[tagDict] += int64(len(arena) - off)
						continue
					}
				}
				arena = append(arena, key...)
				s.offs[i] = uint32(off)
				local[encodingIndex(key[0])] += int64(len(key))
			}
			s.arena = arena
			mu.Lock()
			for k, v := range local {
				totals[k] += v
			}
			mu.Unlock()
		}(si)
	}
	wg.Wait()
	t.keyBytes = totals
}

// MergeSuccinct folds worker-local succinct tables into one, in parallel
// across shards exactly like Merge, consuming the parts as it goes. All
// parts must share width and shard count and must not be frozen — worker
// parts carry no dictionary, so encoded keys byte-compare consistently
// across parts. The result is unfrozen; the build calls Freeze on it once.
func MergeSuccinct(parts []*SuccinctTable) *SuccinctTable {
	if len(parts) == 0 {
		panic("bfhtable: MergeSuccinct of no tables")
	}
	width, ns := parts[0].width, len(parts[0].shards)
	for _, p := range parts {
		if p.width != width || len(p.shards) != ns {
			panic(fmt.Sprintf("bfhtable: MergeSuccinct shape mismatch: (width %d, %d shards) vs (%d, %d)",
				width, ns, p.width, len(p.shards)))
		}
		if p.Frozen() {
			panic("bfhtable: MergeSuccinct of a frozen table")
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	out := NewSuccinct(width, ns)
	var totals [4]int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < ns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			os := &out.shards[s]
			total, arenaBytes := 0, 0
			for _, p := range parts {
				total += p.shards[s].used
				arenaBytes += len(p.shards[s].arena)
			}
			if total == 0 {
				return
			}
			capacity := nextPow2(total*4/3 + 1)
			if capacity < minShardCap {
				capacity = minShardCap
			}
			os.hashes = make([]uint64, capacity)
			os.meta = make([]uint32, capacity)
			os.offs = make([]uint32, capacity)
			os.entries = make([]Entry, capacity)
			os.arena = make([]byte, 0, arenaBytes)
			os.mask = uint64(capacity - 1)
			var local [4]int64
			for _, p := range parts {
				ps := &p.shards[s]
				for i, h := range ps.hashes {
					if h == 0 {
						continue
					}
					key := ps.keyAt(i)
					j := os.findSlot(h, ps.meta[i], key)
					oe := &os.entries[j]
					if os.hashes[j] == 0 {
						os.hashes[j] = h
						os.meta[j] = ps.meta[i]
						os.offs[j] = uint32(len(os.arena))
						os.arena = append(os.arena, key...)
						os.used++
						local[encodingIndex(key[0])] += int64(len(key))
					}
					pe := ps.entries[i]
					if oe.Freq == 0 && pe.Freq > 0 {
						os.live++
					}
					oe.Freq += pe.Freq
					oe.Size = pe.Size
					oe.LengthSum += pe.LengthSum
				}
				// The part shard is spent: release its arrays (arena
				// included) now, capping the merge's transient peak.
				*ps = sshard{}
			}
			mu.Lock()
			for k, v := range local {
				totals[k] += v
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	out.keyBytes = totals
	return out
}

// LoadFactor returns occupied slots over total slots across all shards
// (0 for an empty table) — the bfhrf_hash_load_factor gauge.
func (t *SuccinctTable) LoadFactor() float64 {
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
// its home slot (0 = direct hit) — the source of the
// bfhrf_succinct_bucket_probe_length histogram. Because the probe loop
// rejects non-matching slots on the packed (bucket, length) header,
// displacement is the number of header comparisons a hit pays, not the
// number of key-byte comparisons.
func (t *SuccinctTable) ProbeLengths(fn func(displacement int)) {
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
