package bfhtable

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

func TestAddLookup(t *testing.T) {
	tb := New(2, 4)
	a := []uint64{0x1, 0x2}
	b := []uint64{0x1, 0x3}
	if _, ok := tb.Lookup(a); ok {
		t.Fatal("lookup on empty table hit")
	}
	tb.Add(a, 3, 15)
	tb.Add(a, 3, 25)
	tb.Add(b, 5, 0)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	e, ok := tb.Lookup(a)
	if !ok || e.Freq != 2 || e.Size != 3 || e.LengthSum != 40 {
		t.Fatalf("Lookup(a) = %+v, %v", e, ok)
	}
	e, ok = tb.Lookup(b)
	if !ok || e.Freq != 1 || e.Size != 5 {
		t.Fatalf("Lookup(b) = %+v, %v", e, ok)
	}
	if _, ok := tb.Lookup([]uint64{0x4, 0x4}); ok {
		t.Fatal("lookup of absent key hit")
	}
}

func TestAddCopiesWords(t *testing.T) {
	tb := New(1, 1)
	w := []uint64{42}
	tb.Add(w, 1, 0)
	w[0] = 99 // caller reuses the buffer; the table must keep its own copy
	if _, ok := tb.Lookup([]uint64{42}); !ok {
		t.Fatal("table did not copy key words")
	}
	if _, ok := tb.Lookup([]uint64{99}); ok {
		t.Fatal("table aliases the caller's buffer")
	}
}

func TestGrowthAndDuplicateHeavy(t *testing.T) {
	// Way past several growth rounds, with every key inserted 3 times.
	tb := New(2, 2)
	const n = 5000
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			tb.Add([]uint64{uint64(i), uint64(i) << 32}, 2, 1)
		}
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	for i := 0; i < n; i++ {
		e, ok := tb.Lookup([]uint64{uint64(i), uint64(i) << 32})
		if !ok || e.Freq != 3 || e.LengthSum != 3 {
			t.Fatalf("key %d: %+v, %v", i, e, ok)
		}
	}
	if lf := tb.LoadFactor(); lf <= 0 || lf > 0.75 {
		t.Fatalf("load factor %v outside (0, 0.75]", lf)
	}
}

func TestDecAndRevive(t *testing.T) {
	tb := New(1, 1)
	w := []uint64{7}
	tb.Add(w, 1, 2.0)
	tb.Add(w, 1, 2.0)
	if !tb.Dec(w, 2.0) {
		t.Fatal("Dec missed a live entry")
	}
	if e, ok := tb.Lookup(w); !ok || e.Freq != 1 {
		t.Fatalf("after Dec: %+v, %v", e, ok)
	}
	if !tb.Dec(w, 2.0) {
		t.Fatal("second Dec missed")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after removing all, want 0", tb.Len())
	}
	if _, ok := tb.Lookup(w); ok {
		t.Fatal("tombstoned entry reported live")
	}
	if tb.Dec(w, 0) {
		t.Fatal("Dec on tombstone succeeded")
	}
	if tb.Dec([]uint64{8}, 0) {
		t.Fatal("Dec on absent key succeeded")
	}
	// Revive: the tombstone keeps its key, so Add finds the same slot.
	tb.Add(w, 1, 5.0)
	if e, ok := tb.Lookup(w); !ok || e.Freq != 1 || e.LengthSum != 5.0 {
		t.Fatalf("revived entry: %+v, %v", e, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after revive, want 1", tb.Len())
	}
}

// TestAdversarialCollisions inserts keys engineered to collide on the slot
// index (identical low hash bits cannot be forced without inverting the
// mix, so instead use keys differing only in high words — any clustering
// weakness shows as unbounded probe chains).
func TestAdversarialCollisions(t *testing.T) {
	tb := New(4, 1)
	const n = 2000
	w := make([]uint64, 4)
	for i := 0; i < n; i++ {
		w[0], w[1], w[2], w[3] = 0xffffffffffffffff, 0, 0, uint64(i)
		tb.Add(w, 4, 0)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	maxProbe := 0
	total := 0
	tb.ProbeLengths(func(d int) {
		total++
		if d > maxProbe {
			maxProbe = d
		}
	})
	if total != n {
		t.Fatalf("ProbeLengths visited %d slots, want %d", total, n)
	}
	// With a mixing hash at load <= 3/4, worst-case displacement stays
	// modest; a weak hash would cluster these near-identical keys into
	// chains hundreds long.
	if maxProbe > 64 {
		t.Fatalf("max probe length %d; hash is clustering", maxProbe)
	}
}

func TestMergeMatchesSerialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const parts, perPart, universe = 5, 3000, 1200
	locals := make([]*Table, parts)
	ref := map[uint64]Entry{}
	for p := 0; p < parts; p++ {
		locals[p] = New(1, 8)
		for i := 0; i < perPart; i++ {
			k := uint64(rng.Intn(universe))
			l := int64(k%7) * 25
			locals[p].Add([]uint64{k}, uint32(k%13), l)
			e := ref[k]
			e.Freq++
			e.Size = uint32(k % 13)
			e.LengthSum += l
			ref[k] = e
		}
	}
	m := Merge(locals)
	if m.Len() != len(ref) {
		t.Fatalf("merged Len = %d, want %d", m.Len(), len(ref))
	}
	seen := 0
	m.Range(func(words []uint64, e Entry) bool {
		seen++
		want, ok := ref[words[0]]
		if !ok {
			t.Fatalf("merged table has phantom key %d", words[0])
		}
		if e != want {
			t.Fatalf("key %d: merged %+v, want %+v", words[0], e, want)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d, want %d", seen, len(ref))
	}
	// Sharding invariant: every key still resolves through Lookup.
	for k, want := range ref {
		e, ok := m.Lookup([]uint64{k})
		if !ok || e != want {
			t.Fatalf("Lookup(%d) = %+v, %v; want %+v", k, e, ok, want)
		}
	}
}

func TestMergeSinglePartIsIdentity(t *testing.T) {
	tb := New(1, 2)
	tb.Add([]uint64{1}, 1, 0)
	if m := Merge([]*Table{tb}); m != tb {
		t.Fatal("single-part Merge should return the part itself")
	}
}

func TestShardSelectionUsesTopBits(t *testing.T) {
	tb := New(1, 16)
	if got := tb.NumShards(); got != 16 {
		t.Fatalf("NumShards = %d, want 16", got)
	}
	for i := 0; i < 1000; i++ {
		tb.Add([]uint64{uint64(i)}, 1, 0)
	}
	// The shard of each key must match the top-bits rule exactly (1-word
	// tables hash with bitset.HashWord).
	for i := 0; i < 1000; i++ {
		h := bitset.HashWord(uint64(i))
		want := int(h >> tb.shardShift)
		found := -1
		for s := 0; s < tb.NumShards(); s++ {
			tb.RangeShard(s, func(words []uint64, e Entry) bool {
				if words[0] == uint64(i) {
					found = s
					return false
				}
				return true
			})
		}
		if found != want {
			t.Fatalf("key %d in shard %d, want %d", i, found, want)
		}
	}
	n := 0
	for s := 0; s < tb.NumShards(); s++ {
		n += tb.ShardLen(s)
	}
	if n != 1000 {
		t.Fatalf("shard lens sum to %d, want 1000", n)
	}
}

func TestHashWordsNeverZeroAndSpreads(t *testing.T) {
	buckets := make([]int, 64)
	for i := 0; i < 1<<14; i++ {
		h := bitset.HashWords([]uint64{uint64(i)})
		if h == 0 {
			t.Fatal("HashWords returned 0")
		}
		buckets[h>>58]++
	}
	for b, c := range buckets {
		if c == 0 {
			t.Fatalf("top-bits bucket %d empty over 16k hashes", b)
		}
	}
}
