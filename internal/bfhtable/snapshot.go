package bfhtable

import (
	"fmt"
	"math"
	"math/bits"
)

// Shard export and install — the storage halves of the on-disk snapshot
// format (internal/bfhsnap). ExportShard hands out a shard's raw slot
// arrays so a writer can serialize them without re-hashing or decoding a
// single key; InstallShard accepts arrays read straight off disk (or
// aliased into a read buffer) and adopts them wholesale, so a restore
// costs one validation pass instead of an insert per entry. The exported
// arrays alias live table storage: hold them only while the table is not
// mutated, and never write through them.

// TableShard is the raw storage of one open-addressing shard: the slot
// arrays exactly as the table keeps them (capacity slots, including empty
// ones and keyed tombstones).
type TableShard struct {
	// Hashes holds one word per slot; 0 marks an empty slot.
	Hashes []uint64
	// Words is the inline key arena: slot i's key occupies
	// Words[i*nw : (i+1)*nw].
	Words []uint64
	// Entries holds one record per slot.
	Entries []Entry
	// Used counts occupied slots (tombstones included); Live counts
	// slots with Freq > 0.
	Used, Live int
}

// ExportShard returns shard s's raw storage. The slices alias the table;
// the caller must not mutate them or the table while holding them.
func (t *Table) ExportShard(s int) TableShard {
	sh := &t.shards[s]
	return TableShard{Hashes: sh.hashes, Words: sh.words, Entries: sh.entries, Used: sh.used, Live: sh.live}
}

// InstallShard replaces shard s with the given storage, adopting the
// slices without copying. It validates the invariants the probe loops
// rely on — power-of-two capacity, the 3/4 load bound (which guarantees
// an empty slot terminates every probe), array lengths consistent with
// the capacity and key width, and Used/Live matching the slot contents —
// so a corrupt snapshot fails here instead of corrupting lookups.
func (t *Table) InstallShard(s int, ts TableShard) error {
	if s < 0 || s >= len(t.shards) {
		return fmt.Errorf("bfhtable: install into shard %d of %d", s, len(t.shards))
	}
	capacity := len(ts.Hashes)
	if capacity == 0 {
		if ts.Used != 0 || ts.Live != 0 || len(ts.Words) != 0 || len(ts.Entries) != 0 {
			return fmt.Errorf("bfhtable: empty shard %d with nonzero contents", s)
		}
		t.shards[s] = shard{}
		return nil
	}
	if capacity&(capacity-1) != 0 {
		return fmt.Errorf("bfhtable: shard %d capacity %d is not a power of two", s, capacity)
	}
	if len(ts.Words) != capacity*t.nw {
		return fmt.Errorf("bfhtable: shard %d has %d key words, want %d", s, len(ts.Words), capacity*t.nw)
	}
	if len(ts.Entries) != capacity {
		return fmt.Errorf("bfhtable: shard %d has %d entries, want %d", s, len(ts.Entries), capacity)
	}
	if 4*ts.Used > 3*capacity {
		return fmt.Errorf("bfhtable: shard %d load %d/%d exceeds the 3/4 bound", s, ts.Used, capacity)
	}
	used, live := 0, 0
	for i, h := range ts.Hashes {
		if h == 0 {
			continue
		}
		used++
		if ts.Entries[i].Freq > 0 {
			live++
		}
	}
	if used != ts.Used || live != ts.Live {
		return fmt.Errorf("bfhtable: shard %d declares used=%d live=%d, slots hold %d/%d",
			s, ts.Used, ts.Live, used, live)
	}
	t.shards[s] = shard{
		mask:    uint64(capacity - 1),
		hashes:  ts.Hashes,
		words:   ts.Words,
		entries: ts.Entries,
		used:    ts.Used,
		live:    ts.Live,
	}
	return nil
}

// SuccinctShard is the raw storage of one succinct shard: slot arrays plus
// the variable-length encoded-key arena.
type SuccinctShard struct {
	// Hashes holds one raw-word hash per slot; 0 marks an empty slot.
	Hashes []uint64
	// Meta holds the packed (popcount bucket, encoded length) header per
	// slot; Offs the key's arena offset.
	Meta, Offs []uint32
	// Entries holds one record per slot.
	Entries []Entry
	// Arena is the encoded-key byte arena.
	Arena []byte
	// Used counts occupied slots (tombstones included); Live counts
	// slots with Freq > 0.
	Used, Live int
}

// ExportShard returns shard s's raw storage. The slices alias the table;
// the caller must not mutate them or the table while holding them.
func (t *SuccinctTable) ExportShard(s int) SuccinctShard {
	sh := &t.shards[s]
	return SuccinctShard{
		Hashes: sh.hashes, Meta: sh.meta, Offs: sh.offs,
		Entries: sh.entries, Arena: sh.arena, Used: sh.used, Live: sh.live,
	}
}

// InstallShard replaces shard s with the given storage, adopting the
// slices without copying. Beyond the open-addressing invariants it also
// bounds-checks every occupied slot's arena reference and encoding tag, so
// a corrupt snapshot cannot make keyAt slice out of bounds or later panic
// the encoding classifier. The per-encoding key-byte totals are folded in
// here.
func (t *SuccinctTable) InstallShard(s int, ss SuccinctShard) error {
	if s < 0 || s >= len(t.shards) {
		return fmt.Errorf("bfhtable: install into shard %d of %d", s, len(t.shards))
	}
	capacity := len(ss.Hashes)
	if capacity == 0 {
		if ss.Used != 0 || ss.Live != 0 || len(ss.Meta) != 0 || len(ss.Offs) != 0 ||
			len(ss.Entries) != 0 || len(ss.Arena) != 0 {
			return fmt.Errorf("bfhtable: empty succinct shard %d with nonzero contents", s)
		}
		t.shards[s] = sshard{}
		return nil
	}
	if capacity&(capacity-1) != 0 {
		return fmt.Errorf("bfhtable: succinct shard %d capacity %d is not a power of two", s, capacity)
	}
	if len(ss.Meta) != capacity || len(ss.Offs) != capacity || len(ss.Entries) != capacity {
		return fmt.Errorf("bfhtable: succinct shard %d array lengths %d/%d/%d, want %d",
			s, len(ss.Meta), len(ss.Offs), len(ss.Entries), capacity)
	}
	if 4*ss.Used > 3*capacity {
		return fmt.Errorf("bfhtable: succinct shard %d load %d/%d exceeds the 3/4 bound", s, ss.Used, capacity)
	}
	used, live := 0, 0
	var perEnc [4]int64
	for i, h := range ss.Hashes {
		if h == 0 {
			continue
		}
		used++
		if ss.Entries[i].Freq > 0 {
			live++
		}
		encLen := uint64(ss.Meta[i] & maxEncLen)
		if encLen == 0 || uint64(ss.Offs[i])+encLen > uint64(len(ss.Arena)) {
			return fmt.Errorf("bfhtable: succinct shard %d slot %d references arena [%d,%d) of %d bytes",
				s, i, ss.Offs[i], uint64(ss.Offs[i])+encLen, len(ss.Arena))
		}
		tag := ss.Arena[ss.Offs[i]]
		if tag > tagDict {
			return fmt.Errorf("bfhtable: succinct shard %d slot %d has unknown key tag %#x", s, i, tag)
		}
		perEnc[tag] += int64(encLen)
	}
	if used != ss.Used || live != ss.Live {
		return fmt.Errorf("bfhtable: succinct shard %d declares used=%d live=%d, slots hold %d/%d",
			s, ss.Used, ss.Live, used, live)
	}
	old := &t.shards[s]
	if old.used > 0 {
		// Replacing a populated shard would double-count keyBytes; installs
		// only ever target empty shards of a fresh table.
		return fmt.Errorf("bfhtable: succinct shard %d is already populated", s)
	}
	t.shards[s] = sshard{
		mask:    uint64(capacity - 1),
		hashes:  ss.Hashes,
		meta:    ss.Meta,
		offs:    ss.Offs,
		entries: ss.Entries,
		arena:   ss.Arena,
		used:    ss.Used,
		live:    ss.Live,
	}
	for k, v := range perEnc {
		t.keyBytes[k] += v
	}
	return nil
}

// InstallDict installs a frozen table's shared-prefix dictionary, marking
// the table frozen (an empty dictionary is a valid frozen state). Arena
// keys installed before or after must already carry this dictionary's
// encodings — InstallDict never re-encodes. The prefix slices are adopted
// without copying.
func (t *SuccinctTable) InstallDict(dict [][]byte) error {
	if t.dict != nil {
		return fmt.Errorf("bfhtable: dictionary already installed")
	}
	if len(dict) > dictMaxEntries {
		return fmt.Errorf("bfhtable: dictionary has %d entries, max %d", len(dict), dictMaxEntries)
	}
	ids := make(map[string]uint8, len(dict))
	for i, p := range dict {
		if len(p) != dictPrefixLen {
			return fmt.Errorf("bfhtable: dictionary entry %d is %d bytes, want %d", i, len(p), dictPrefixLen)
		}
		ids[string(p)] = uint8(i)
	}
	if len(ids) != len(dict) {
		return fmt.Errorf("bfhtable: dictionary has duplicate prefixes")
	}
	if dict == nil {
		dict = [][]byte{}
	}
	t.dict = dict
	t.dictIDs = ids
	return nil
}

// ShardIndex maps a key hash to its shard under the table's partitioning
// rule (the hash's top bits). shards must be the table's NumShards — a
// power of two. Delta builds use it to mark which shards a tree's
// bipartitions touch without holding a table at all.
func ShardIndex(h uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	if shards&(shards-1) != 0 {
		panic(fmt.Sprintf("bfhtable: ShardIndex with non-power-of-two shard count %d", shards))
	}
	shift := uint(64 - bits.TrailingZeros64(uint64(shards)))
	return int(h >> shift)
}

// Totals sums the stored records over every occupied slot: Σ Freq,
// Σ LengthSum and Σ |LengthSum|, the last saturating at MaxUint64.
// Restore paths cross-check the frequency total against a snapshot's
// declared instance count and bound the length sums by the last.
func (t *Table) Totals() (sum uint64, lenSum int64, lenAbs uint64) {
	for i := range t.shards {
		sum, lenSum, lenAbs = addTotals(sum, lenSum, lenAbs, t.shards[i].hashes, t.shards[i].entries)
	}
	return sum, lenSum, lenAbs
}

// Totals is Table.Totals for the succinct backend.
func (t *SuccinctTable) Totals() (sum uint64, lenSum int64, lenAbs uint64) {
	for i := range t.shards {
		sum, lenSum, lenAbs = addTotals(sum, lenSum, lenAbs, t.shards[i].hashes, t.shards[i].entries)
	}
	return sum, lenSum, lenAbs
}

// addTotals folds one shard's occupied slots into the running Totals.
func addTotals(sum uint64, lenSum int64, lenAbs uint64, hashes []uint64, entries []Entry) (uint64, int64, uint64) {
	for j, h := range hashes {
		if h == 0 {
			continue
		}
		e := entries[j]
		sum += uint64(e.Freq)
		lenSum += e.LengthSum
		a := uint64(max(e.LengthSum, -e.LengthSum)) // |MinInt64| too
		if lenAbs += a; lenAbs < a {
			lenAbs = math.MaxUint64
		}
	}
	return sum, lenSum, lenAbs
}
