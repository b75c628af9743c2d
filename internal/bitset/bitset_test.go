package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	for _, width := range []int{1, 7, 63, 64, 65, 127, 128, 129, 1000} {
		b := New(width)
		for i := 0; i < width; i += 3 {
			b.Set(i)
		}
		for i := 0; i < width; i++ {
			want := i%3 == 0
			if b.Test(i) != want {
				t.Fatalf("width %d: Test(%d) = %v, want %v", width, i, b.Test(i), want)
			}
		}
		for i := 0; i < width; i += 3 {
			b.Clear(i)
		}
		if b.Any() {
			t.Fatalf("width %d: expected empty after clearing", width)
		}
	}
}

func TestCount(t *testing.T) {
	b := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		b.Set(i)
	}
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, f := range []func(){
		func() { b.Set(10) },
		func() { b.Set(-1) },
		func() { b.Test(10) },
		func() { b.Clear(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range index")
				}
			}()
			f()
		}()
	}
}

func TestNegativeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative width")
		}
	}()
	New(-1)
}

func TestComplementMasksTail(t *testing.T) {
	b := New(70)
	b.Set(0)
	c := b.Complement()
	if c.Count() != 69 {
		t.Errorf("Complement Count = %d, want 69", c.Count())
	}
	if c.Test(0) {
		t.Error("bit 0 should be clear in complement")
	}
	// Double complement is identity.
	d := c.Complement()
	if !d.Equal(b) {
		t.Error("double complement is not identity")
	}
}

func TestBooleanOps(t *testing.T) {
	a := MustParse("110010")
	b := MustParse("011011")

	or := a.Clone()
	or.Or(b)
	if or.String() != "111011" {
		t.Errorf("Or = %s", or.String())
	}
	and := a.Clone()
	and.And(b)
	if and.String() != "010010" {
		t.Errorf("And = %s", and.String())
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if andNot.String() != "100000" {
		t.Errorf("AndNot = %s", andNot.String())
	}
	xor := a.Clone()
	xor.Xor(b)
	if xor.String() != "101001" {
		t.Errorf("Xor = %s", xor.String())
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width mismatch")
		}
	}()
	a.Or(b)
}

func TestKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 5, 64, 65, 200} {
		for trial := 0; trial < 20; trial++ {
			b := New(width)
			for i := 0; i < width; i++ {
				if rng.Intn(2) == 1 {
					b.Set(i)
				}
			}
			got, err := FromKey(b.Key(), width)
			if err != nil {
				t.Fatalf("FromKey: %v", err)
			}
			if !got.Equal(b) {
				t.Fatalf("width %d: round trip mismatch: %s vs %s", width, got, b)
			}
		}
	}
}

func TestKeyCollisionFree(t *testing.T) {
	// Distinct vectors must give distinct keys (the collision-free property
	// BFHRF relies on).
	seen := map[string]string{}
	for i := 0; i < 64; i++ {
		b := New(64)
		b.Set(i)
		k := b.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, b)
		}
		seen[k] = b.String()
	}
}

func TestFromKeyRejectsBadInput(t *testing.T) {
	if _, err := FromKey("short", 64); err == nil {
		t.Error("expected error for wrong key length")
	}
	// A key with bits beyond the width must be rejected.
	b := New(64)
	b.Set(63)
	if _, err := FromKey(b.Key(), 60); err == nil {
		t.Error("expected error for tail bits beyond width")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, s := range []string{"0", "1", "0011", "1101", "1011", "0111"} {
		b := MustParse(s)
		if b.String() != s {
			t.Errorf("round trip %q -> %q", s, b.String())
		}
	}
}

func TestParseRejectsJunk(t *testing.T) {
	if _, err := Parse("01x1"); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestPaperExampleEncoding(t *testing.T) {
	// Paper §II.B: T = ((A,B),(C,D)), bit order A=0 … D=3, the internal
	// edge splits {A,B} | {C,D}: encoding "0011" with A's side as 1s.
	ab := MustParse("0011")
	if !ab.Test(0) || !ab.Test(1) || ab.Test(2) || ab.Test(3) {
		t.Errorf("encoding 0011 should set bits 0,1 only: %s", ab)
	}
	if ab.Count() != 2 {
		t.Errorf("Count = %d", ab.Count())
	}
}

func TestNextSetAndIndices(t *testing.T) {
	b := New(200)
	want := []int{0, 63, 64, 150, 199}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
	if b.NextSet(200) != -1 || b.NextSet(-5) != 0 {
		t.Error("NextSet boundary behaviour wrong")
	}
	empty := New(64)
	if empty.NextSet(0) != -1 {
		t.Error("NextSet on empty should be -1")
	}
}

func TestCompare(t *testing.T) {
	a := MustParse("0011")
	b := MustParse("0101")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a.Clone()) != 0 {
		t.Error("Compare ordering wrong")
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	a := MustParse("0011")
	b := MustParse("0111")
	if !a.IsSubsetOf(b) || b.IsSubsetOf(a) {
		t.Error("subset relation wrong")
	}
	c := MustParse("1100")
	if a.Intersects(c) {
		t.Error("disjoint sets should not intersect")
	}
	if !a.Intersects(b) {
		t.Error("overlapping sets should intersect")
	}
}

// randomBits is a helper for property tests.
func randomBits(rng *rand.Rand, width int) *Bits {
	b := New(width)
	for i := 0; i < width; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i)
		}
	}
	return b
}

func TestQuickDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, w uint8) bool {
		width := int(w)%150 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBits(r, width)
		b := randomBits(r, width)
		// ¬(a ∨ b) == ¬a ∧ ¬b
		left := a.Clone()
		left.Or(b)
		left.ComplementInPlace()
		right := a.Complement()
		right.And(b.Complement())
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestQuickXorSelfInverse(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBits(r, width)
		b := randomBits(r, width)
		c := a.Clone()
		c.Xor(b)
		c.Xor(b)
		return c.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCountComplement(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBits(r, width)
		return a.Count()+a.Complement().Count() == width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyRoundTrip(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		width := int(w)%200 + 1
		r := rand.New(rand.NewSource(seed))
		a := randomBits(r, width)
		got, err := FromKey(a.Key(), width)
		return err == nil && got.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCopyFromAndReset(t *testing.T) {
	a := MustParse("1010")
	b := New(4)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Error("CopyFrom mismatch")
	}
	b.Reset()
	if b.Any() {
		t.Error("Reset should clear all bits")
	}
	if !a.Any() {
		t.Error("Reset of copy must not affect source")
	}
}

func TestZeroWidth(t *testing.T) {
	b := New(0)
	if b.Any() || b.Count() != 0 || b.Key() != "" {
		t.Error("zero-width vector misbehaves")
	}
	b.ComplementInPlace() // must not panic
	if b.Any() {
		t.Error("complement of zero-width vector should stay empty")
	}
}

// TestHashWordNeverZeroAndSpreads checks the one-word hash's table
// contract: never 0 (0 marks an empty slot) and no empty top-bits bucket
// (the shard selector) over a dense input range.
func TestHashWordNeverZeroAndSpreads(t *testing.T) {
	buckets := make([]int, 64)
	for i := 0; i < 1<<14; i++ {
		h := HashWord(uint64(i))
		if h == 0 {
			t.Fatal("HashWord returned 0")
		}
		buckets[h>>58]++
	}
	for b, c := range buckets {
		if c == 0 {
			t.Fatalf("top-bits bucket %d empty over 16k hashes", b)
		}
	}
	// The seed word itself must not collapse to the zero fixup path.
	if HashWord(0x9e3779b97f4a7c15) == 1 && HashWord(0) == 1 {
		t.Fatal("distinct words collapsed to the zero fixup")
	}
}

func TestViewAliasesAndValidates(t *testing.T) {
	words := []uint64{0b1010, 0b1}
	v, err := View(words, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Test(1) || !v.Test(64) || v.Count() != 3 {
		t.Fatalf("view %s does not read the words", v.String())
	}
	words[0] |= 1
	if !v.Test(0) {
		t.Error("view copied the words instead of aliasing them")
	}
	if _, err := View(words, 64); err == nil {
		t.Error("two words accepted for width 64")
	}
	if _, err := View([]uint64{0, 0b10}, 65); err == nil {
		t.Error("bit beyond width 65 accepted")
	}
	c, err := FromWords(words, 65)
	if err != nil {
		t.Fatal(err)
	}
	words[1] = 0
	if !c.Test(64) {
		t.Error("FromWords aliased the words instead of copying them")
	}
}
