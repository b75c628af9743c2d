package bfhtable

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// randMask returns a canonical-looking width-bit mask: bit 0 clear (the
// anchor side convention) and a density drawn from sparse, dense, and
// balanced regimes so every encoding gets exercised.
func randMask(rng *rand.Rand, width int) []uint64 {
	nw := (width + 63) / 64
	words := make([]uint64, nw)
	var p float64
	switch rng.Intn(3) {
	case 0:
		p = 0.01
	case 1:
		p = 0.99
	default:
		p = 0.5
	}
	for i := 1; i < width; i++ {
		if rng.Float64() < p {
			words[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return words
}

func popcount(words []uint64) uint32 {
	return uint32(bitset.PopCountWords(words))
}

// TestSuccinctMatchesTable drives the same operation sequence into a Table
// and a SuccinctTable and demands identical observable state: Len,
// Lookup results for present and absent keys, Dec/tombstone semantics —
// through Lookup and through the query path's AppendEncoded +
// LookupEncoded, before and after Freeze.
func TestSuccinctMatchesTable(t *testing.T) {
	for _, width := range []int{40, 64, 100, 1000, 4096} {
		rng := rand.New(rand.NewSource(int64(width)))
		nw := (width + 63) / 64
		oa := New(nw, 4)
		st := NewSuccinct(width, 4)
		masks := make([][]uint64, 0, 200)
		for i := 0; i < 200; i++ {
			m := randMask(rng, width)
			masks = append(masks, m)
			reps := 1 + rng.Intn(3)
			for r := 0; r < reps; r++ {
				oa.Add(m, popcount(m), 25)
				st.Add(m, popcount(m), 25)
			}
		}
		if oa.Len() != st.Len() {
			t.Fatalf("width=%d: Len %d vs %d", width, st.Len(), oa.Len())
		}
		// probe is the query path: one reused encoding buffer and the
		// caller's precomputed raw-word hash.
		var buf []byte
		probe := func(m []uint64) (Entry, bool) {
			h := bitset.HashWords(m)
			if nw == 1 {
				h = bitset.HashWord(m[0])
			}
			var meta uint32
			buf, meta = st.AppendEncoded(buf[:0], m)
			return st.LookupEncoded(h, buf, meta)
		}
		same := func(m []uint64) bool {
			we, wok := oa.Lookup(m)
			ge, gok := st.Lookup(m)
			pe, pok := probe(m)
			return wok == gok && we == ge && wok == pok && we == pe
		}
		check := func(stage string) {
			t.Helper()
			for _, m := range masks {
				if !same(m) {
					t.Fatalf("width=%d %s: lookup mismatch on %x", width, stage, m)
				}
			}
			for i := 0; i < 50; i++ {
				if m := randMask(rng, width); !same(m) {
					t.Fatalf("width=%d %s: random-probe mismatch on %x", width, stage, m)
				}
			}
		}
		check("after build")
		// Dec some keys to tombstones and past them; both must agree.
		for i := 0; i < 40; i++ {
			m := masks[rng.Intn(len(masks))]
			if oa.Dec(m, 25) != st.Dec(m, 25) {
				t.Fatalf("width=%d: Dec disagreement", width)
			}
		}
		if oa.Len() != st.Len() {
			t.Fatalf("width=%d after Dec: Len %d vs %d", width, st.Len(), oa.Len())
		}
		check("after Dec")
		// Freeze mints the dictionary; lookups must be unchanged.
		st.Freeze()
		check("after Freeze")
		// Post-freeze inserts (tombstone revival included) still agree.
		for i := 0; i < 40; i++ {
			m := masks[rng.Intn(len(masks))]
			oa.Add(m, popcount(m), 5)
			st.Add(m, popcount(m), 5)
		}
		if oa.Len() != st.Len() {
			t.Fatalf("width=%d after revive: Len %d vs %d", width, st.Len(), oa.Len())
		}
		check("after post-freeze adds")
	}
}

// TestSuccinctMergeMatchesSerialFold splits one insertion stream across
// worker parts, merges, and compares against a single-owner table — and
// checks the consuming contract (parts emptied).
func TestSuccinctMergeMatchesSerialFold(t *testing.T) {
	const width, parts = 300, 4
	rng := rand.New(rand.NewSource(7))
	want := NewSuccinct(width, 8)
	ps := make([]*SuccinctTable, parts)
	for i := range ps {
		ps[i] = NewSuccinct(width, 8)
	}
	masks := make([][]uint64, 0, 500)
	for i := 0; i < 500; i++ {
		m := randMask(rng, width)
		masks = append(masks, m)
		want.Add(m, popcount(m), 1)
		ps[rng.Intn(parts)].Add(m, popcount(m), 1)
	}
	got := MergeSuccinct(ps)
	if got.Len() != want.Len() {
		t.Fatalf("merged Len %d, want %d", got.Len(), want.Len())
	}
	for _, m := range masks {
		ge, gok := got.Lookup(m)
		we, wok := want.Lookup(m)
		if gok != wok || ge != we {
			t.Fatalf("merged lookup mismatch: (%v,%v) vs (%v,%v)", ge, gok, we, wok)
		}
	}
	for i, p := range ps {
		for s := range p.shards {
			if p.shards[s].used != 0 || p.shards[s].arena != nil {
				t.Fatalf("part %d shard %d not consumed", i, s)
			}
		}
	}
}

// TestSuccinctFreezeDictionary builds a population with heavily shared
// prefixes and verifies Freeze actually moves arena bytes into the dict
// encoding, shrinks the arena, and keeps every lookup intact.
func TestSuccinctFreezeDictionary(t *testing.T) {
	const width = 2048
	st := NewSuccinct(width, 4)
	nw := (width + 63) / 64
	masks := make([][]uint64, 0, 256)
	// Sparse splits sharing their first set bits: identical leading varint
	// deltas, so their encodings share prefixes longer than dictPrefixLen.
	for i := 0; i < 256; i++ {
		words := make([]uint64, nw)
		for b := 64; b < 64+24; b++ {
			words[b/64] |= 1 << (uint(b) % 64)
		}
		tail := 1024 + i*3
		words[tail/64] |= 1 << (uint(tail) % 64)
		masks = append(masks, words)
		st.Add(words, popcount(words), 0)
	}
	before := st.FootprintBytes()
	raw0, sp0, co0, d0 := st.KeyByteTotals()
	if d0 != 0 {
		t.Fatalf("dict bytes before freeze: %d", d0)
	}
	arenaBefore := raw0 + sp0 + co0
	st.Freeze()
	if !st.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	raw1, sp1, co1, d1 := st.KeyByteTotals()
	if d1 == 0 {
		t.Fatal("no keys moved to the dictionary encoding")
	}
	arenaAfter := raw1 + sp1 + co1 + d1
	if arenaAfter >= arenaBefore {
		t.Fatalf("freeze did not shrink arena bytes: %d -> %d", arenaBefore, arenaAfter)
	}
	if after := st.FootprintBytes(); after >= before {
		t.Fatalf("freeze did not shrink footprint: %d -> %d", before, after)
	}
	for _, m := range masks {
		if e, ok := st.Lookup(m); !ok || e.Freq != 1 {
			t.Fatalf("post-freeze lookup lost a key: %v %v", e, ok)
		}
	}
	// Range must decode dictionary keys back to the exact masks.
	seen := 0
	st.Range(func(words []uint64, e Entry) bool {
		seen++
		found := false
		for _, m := range masks {
			if bitset.EqualWords(words, m) {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("Range produced a mask that was never inserted")
		}
		return true
	})
	if seen != len(masks) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(masks))
	}
}

// TestSuccinctAddCopiesWords verifies the caller may reuse its mask slice.
func TestSuccinctAddCopiesWords(t *testing.T) {
	st := NewSuccinct(128, 1)
	w := []uint64{6, 0}
	st.Add(w, 2, 0)
	w[0] = 99
	if _, ok := st.Lookup([]uint64{6, 0}); !ok {
		t.Fatal("mask mutated after Add leaked into the table")
	}
	if _, ok := st.Lookup([]uint64{99, 0}); ok {
		t.Fatal("mutated slice found in table")
	}
}

// TestDecodeKeyWithDict round-trips the snapshot-restore decode helper.
func TestDecodeKeyWithDict(t *testing.T) {
	const width = 2048
	st := NewSuccinct(width, 2)
	masks := make([][]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		words := make([]uint64, (width+63)/64)
		words[1] = 0x3f // shared prefix material
		tail := 512 + i
		words[tail/64] |= 1 << (uint(tail) % 64)
		masks = append(masks, words)
		st.Add(words, popcount(words), 0)
	}
	st.Freeze()
	dict := st.DictEntries()
	dst := make([]uint64, st.WordsPerKey())
	var scratch []byte
	for s := 0; s < st.NumShards(); s++ {
		st.RangeShardEncoded(s, func(enc []byte, e Entry) bool {
			var err error
			scratch, err = DecodeKeyWithDict(dst, enc, dict, scratch, width)
			if err != nil {
				t.Fatalf("DecodeKeyWithDict: %v", err)
			}
			if _, ok := st.Lookup(dst); !ok {
				t.Fatal("decoded key not found in source table")
			}
			return true
		})
	}
}
