package bfhtable

import (
	"math/rand"
	"testing"
)

// fillRandom inserts n random multi-word keys and returns them for later
// verification. Keys are generated deterministic-per-seed.
func fillRandom(tb testing.TB, t *Table, nw, n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		k := make([]uint64, nw)
		for j := range k {
			k[j] = rng.Uint64()
		}
		t.Add(k, 5, 1.0)
		keys = append(keys, k)
	}
	return keys
}

func TestTableExportInstallRoundTrip(t *testing.T) {
	const nw, shards, n = 3, 4, 500
	src := New(nw, shards)
	keys := fillRandom(t, src, nw, n, 1)

	dst := New(nw, shards)
	for s := 0; s < shards; s++ {
		if err := dst.InstallShard(s, src.ExportShard(s)); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored Len = %d, want %d", dst.Len(), src.Len())
	}
	for _, k := range keys {
		if e, ok := dst.Lookup(k); !ok || e.Freq == 0 {
			t.Fatalf("restored table missing key %x", k)
		}
	}
	wantSum, wantLen, wantAbs := src.Totals()
	gotSum, gotLen, gotAbs := dst.Totals()
	if gotSum != wantSum || gotLen != wantLen || gotAbs != wantAbs {
		t.Fatalf("Totals = (%d, %d, %d), want (%d, %d, %d)", gotSum, gotLen, gotAbs, wantSum, wantLen, wantAbs)
	}
}

func TestTableInstallShardRejectsCorruption(t *testing.T) {
	const nw, shards = 2, 2
	src := New(nw, shards)
	fillRandom(t, src, nw, 100, 2)
	exp := src.ExportShard(0)

	cases := []struct {
		name string
		mut  func(TableShard) TableShard
	}{
		{"wrong used", func(s TableShard) TableShard { s.Used++; return s }},
		{"wrong live", func(s TableShard) TableShard { s.Live--; return s }},
		{"overfull", func(s TableShard) TableShard {
			s.Used = len(s.Hashes) // > 3/4 bound
			return s
		}},
		{"non-pow2", func(s TableShard) TableShard {
			s.Hashes = s.Hashes[:len(s.Hashes)-1]
			return s
		}},
		{"short words", func(s TableShard) TableShard { s.Words = s.Words[:1]; return s }},
		{"short entries", func(s TableShard) TableShard { s.Entries = s.Entries[:1]; return s }},
	}
	for _, tc := range cases {
		dst := New(nw, shards)
		if err := dst.InstallShard(0, tc.mut(clone(exp))); err == nil {
			t.Errorf("%s: install accepted corrupt shard", tc.name)
		}
	}
	dst := New(nw, shards)
	if err := dst.InstallShard(shards, clone(exp)); err == nil {
		t.Errorf("out-of-range shard index accepted")
	}
}

func clone(s TableShard) TableShard {
	c := s
	c.Hashes = append([]uint64(nil), s.Hashes...)
	c.Words = append([]uint64(nil), s.Words...)
	c.Entries = append([]Entry(nil), s.Entries...)
	return c
}

func TestSuccinctExportInstallRoundTrip(t *testing.T) {
	const width, shards, n = 300, 4, 400
	src := NewSuccinct(width, shards)
	rng := rand.New(rand.NewSource(3))
	nw := src.WordsPerKey()
	keys := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		k := make([]uint64, nw)
		// Sparse-ish keys so several encodings appear in the arena.
		for j := 0; j < 1+rng.Intn(nw); j++ {
			k[rng.Intn(nw)] = rng.Uint64()
		}
		if k[0] == 0 && k[1] == 0 {
			k[0] = 1
		}
		src.Add(k, 7, 5)
		keys = append(keys, k)
	}
	src.Freeze()

	dst := NewSuccinct(width, shards)
	if err := dst.InstallDict(src.DictEntries()); err != nil {
		t.Fatalf("InstallDict: %v", err)
	}
	for s := 0; s < shards; s++ {
		if err := dst.InstallShard(s, src.ExportShard(s)); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	if !dst.Frozen() {
		t.Fatal("restored table not frozen")
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored Len = %d, want %d", dst.Len(), src.Len())
	}
	for _, k := range keys {
		if e, ok := dst.Lookup(k); !ok || e.Freq == 0 {
			t.Fatalf("restored table missing key %x", k)
		}
	}
	wantSum, wantLen, wantAbs := src.Totals()
	gotSum, gotLen, gotAbs := dst.Totals()
	if gotSum != wantSum || gotLen != wantLen || gotAbs != wantAbs {
		t.Fatalf("Totals = (%d, %d, %d), want (%d, %d, %d)", gotSum, gotLen, gotAbs, wantSum, wantLen, wantAbs)
	}
	r0, s0, c0, d0 := src.KeyByteTotals()
	r1, s1, c1, d1 := dst.KeyByteTotals()
	if r0 != r1 || s0 != s1 || c0 != c1 || d0 != d1 {
		t.Fatalf("KeyByteTotals = (%d,%d,%d,%d), want (%d,%d,%d,%d)", r1, s1, c1, d1, r0, s0, c0, d0)
	}
}

func TestSuccinctInstallShardRejectsCorruption(t *testing.T) {
	const width, shards = 200, 2
	src := NewSuccinct(width, shards)
	rng := rand.New(rand.NewSource(4))
	nw := src.WordsPerKey()
	for i := 0; i < 150; i++ {
		k := make([]uint64, nw)
		k[rng.Intn(nw)] = rng.Uint64() | 1
		src.Add(k, 3, 1.0)
	}
	exp := src.ExportShard(0)
	if exp.Used == 0 {
		t.Skip("shard 0 empty under this seed")
	}

	firstOcc := -1
	for i, h := range exp.Hashes {
		if h != 0 {
			firstOcc = i
			break
		}
	}

	cases := []struct {
		name string
		mut  func(SuccinctShard) SuccinctShard
	}{
		{"wrong used", func(s SuccinctShard) SuccinctShard { s.Used++; return s }},
		{"arena overrun", func(s SuccinctShard) SuccinctShard {
			s.Offs[firstOcc] = uint32(len(s.Arena))
			return s
		}},
		{"zero encLen", func(s SuccinctShard) SuccinctShard {
			s.Meta[firstOcc] &^= maxEncLen
			return s
		}},
		{"bad tag", func(s SuccinctShard) SuccinctShard {
			s.Arena[s.Offs[firstOcc]] = 0x7f
			return s
		}},
		{"short meta", func(s SuccinctShard) SuccinctShard { s.Meta = s.Meta[:1]; return s }},
	}
	for _, tc := range cases {
		dst := NewSuccinct(width, shards)
		if err := dst.InstallShard(0, tc.mut(sclone(exp))); err == nil {
			t.Errorf("%s: install accepted corrupt shard", tc.name)
		}
	}
}

func sclone(s SuccinctShard) SuccinctShard {
	c := s
	c.Hashes = append([]uint64(nil), s.Hashes...)
	c.Meta = append([]uint32(nil), s.Meta...)
	c.Offs = append([]uint32(nil), s.Offs...)
	c.Entries = append([]Entry(nil), s.Entries...)
	c.Arena = append([]byte(nil), s.Arena...)
	return c
}

func TestInstallDictValidation(t *testing.T) {
	mk := func(b byte) []byte {
		p := make([]byte, dictPrefixLen)
		p[0] = b
		return p
	}
	t.Run("duplicate", func(t *testing.T) {
		dst := NewSuccinct(100, 1)
		if err := dst.InstallDict([][]byte{mk(1), mk(1)}); err == nil {
			t.Fatal("duplicate prefixes accepted")
		}
	})
	t.Run("wrong length", func(t *testing.T) {
		dst := NewSuccinct(100, 1)
		if err := dst.InstallDict([][]byte{{1, 2, 3}}); err == nil {
			t.Fatal("short prefix accepted")
		}
	})
	t.Run("twice", func(t *testing.T) {
		dst := NewSuccinct(100, 1)
		if err := dst.InstallDict(nil); err != nil {
			t.Fatalf("empty dict: %v", err)
		}
		if !dst.Frozen() {
			t.Fatal("empty dict did not freeze the table")
		}
		if err := dst.InstallDict(nil); err == nil {
			t.Fatal("second InstallDict accepted")
		}
	})
}

func TestShardIndexMatchesTable(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 256} {
		tb := New(1, shards)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 1000; i++ {
			h := rng.Uint64() | 1
			want := 0
			if tb.shardShift < 64 {
				want = int(h >> tb.shardShift)
			}
			if got := ShardIndex(h, shards); got != want {
				t.Fatalf("ShardIndex(%#x, %d) = %d, want %d", h, shards, got, want)
			}
		}
	}
}
