// Package bitset implements fixed-width bit vectors used to encode tree
// bipartitions as bitmask vectors, following the encoding scheme described
// in the paper (§II.B): taxa are assigned bit positions and a bipartition is
// a length-n bit vector whose set bits mark one side of the split.
//
// Vectors are stored as little-endian []uint64 words. All operations either
// mutate the receiver in place (Set, Clear, AndNot, …) or allocate a fresh
// vector (Clone, Complement, …); the documentation on each method says which.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bits is a fixed-width bit vector. The width (number of valid bits) is
// carried alongside the words so that complementation and canonicalization
// know where the vector ends.
type Bits struct {
	words []uint64
	width int
}

// New returns an all-zero vector of the given width (number of bits).
// Width zero is allowed and yields an empty vector.
func New(width int) *Bits {
	if width < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", width))
	}
	return &Bits{
		words: make([]uint64, wordsFor(width)),
		width: width,
	}
}

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// Width returns the number of valid bits.
func (b *Bits) Width() int { return b.width }

// Words returns the backing words. The slice is shared, not copied; callers
// must not mutate it unless they own the vector.
func (b *Bits) Words() []uint64 { return b.words }

// Set sets bit i to 1. Panics if i is out of range.
func (b *Bits) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0. Panics if i is out of range.
func (b *Bits) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is 1. Panics if i is out of range.
func (b *Bits) Test(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (b *Bits) check(i int) {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.width))
	}
}

// Count returns the number of set bits (population count).
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset zeroes every bit in place.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words)), width: b.width}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with o in place. Panics on width mismatch.
func (b *Bits) CopyFrom(o *Bits) {
	b.mustMatch(o)
	copy(b.words, o.words)
}

// Or sets b |= o in place. Panics on width mismatch.
func (b *Bits) Or(o *Bits) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// And sets b &= o in place. Panics on width mismatch.
func (b *Bits) And(o *Bits) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// AndNot sets b &^= o in place. Panics on width mismatch.
func (b *Bits) AndNot(o *Bits) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Xor sets b ^= o in place. Panics on width mismatch.
func (b *Bits) Xor(o *Bits) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] ^= w
	}
}

// ComplementInPlace flips every valid bit, masking tail bits beyond width.
func (b *Bits) ComplementInPlace() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// Complement returns a fresh vector with every valid bit flipped.
func (b *Bits) Complement() *Bits {
	c := b.Clone()
	c.ComplementInPlace()
	return c
}

// maskTail zeroes bits at positions >= width in the final word so that
// equality, hashing and popcounts are well defined.
func (b *Bits) maskTail() {
	if b.width == 0 {
		return
	}
	rem := b.width % wordBits
	if rem != 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Equal reports whether b and o have the same width and identical bits.
func (b *Bits) Equal(o *Bits) bool {
	if b.width != o.width {
		return false
	}
	for i, w := range b.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// Compare orders vectors of equal width lexicographically from the highest
// word down: -1 if b < o, 0 if equal, +1 if b > o. Panics on width mismatch.
func (b *Bits) Compare(o *Bits) int {
	b.mustMatch(o)
	for i := len(b.words) - 1; i >= 0; i-- {
		switch {
		case b.words[i] < o.words[i]:
			return -1
		case b.words[i] > o.words[i]:
			return 1
		}
	}
	return 0
}

// IsSubsetOf reports whether every set bit of b is also set in o.
func (b *Bits) IsSubsetOf(o *Bits) bool {
	b.mustMatch(o)
	for i, w := range b.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share any set bit.
func (b *Bits) Intersects(o *Bits) bool {
	b.mustMatch(o)
	for i, w := range b.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

func (b *Bits) mustMatch(o *Bits) {
	if b.width != o.width {
		panic(fmt.Sprintf("bitset: width mismatch %d vs %d", b.width, o.width))
	}
}

// Key returns the vector content as a string suitable for use as a
// collision-free map key. The key embeds only the word bytes; two vectors of
// the same width have equal keys iff they are bit-for-bit equal. This is the
// property that distinguishes the paper's BFH from HashRF's lossy
// compressed hashing.
func (b *Bits) Key() string {
	return string(b.AppendKey(nil))
}

// AppendKey appends the Key() bytes to dst and returns the extended slice.
// It allocates only when dst lacks capacity, so hot paths can probe a
// map[string]entry via m[string(buf)] with a reused scratch buffer and no
// per-lookup key materialization.
func (b *Bits) AppendKey(dst []byte) []byte {
	for _, w := range b.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// MixHash folds one word into a running murmur3-style hash state — the
// per-word mixing step of HashWords, exported so order-invariant digests
// (the query-side topology fingerprint in internal/core) can chain the
// exact same mix over an already-sorted hash sequence instead of
// reinventing constants. Seed the state, fold words, then FinishHash.
func MixHash(h, w uint64) uint64 {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	k := w * c1
	k = bits.RotateLeft64(k, 31)
	k *= c2
	h ^= k
	return bits.RotateLeft64(h, 27)*5 + 0x52dce729
}

// FinishHash applies the final fmix64 avalanche to a MixHash chain. The
// result is never 0, letting tables use 0 as the empty-slot marker.
func FinishHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	if h == 0 {
		h = 1
	}
	return h
}

// HashWords mixes a word slice into a 64-bit hash (murmur3-style per-word
// mixing with a final avalanche, standard library only). It is the hash of
// the open-addressing BFH backend: computed directly over a bipartition's
// canonical mask words, so no key string ever exists on that path. The
// result is never 0, letting tables use 0 as the empty-slot marker.
func HashWords(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ (uint64(len(words)) * 8)
	for _, w := range words {
		h = MixHash(h, w)
	}
	return FinishHash(h)
}

// HashWord hashes a one-word key (catalogues of at most 64 taxa). It is
// fmix64 — murmur3's finalizer — over the seeded word: a full-avalanche
// mixer at roughly half the multiply count of the generic multi-word
// path, and straight-line code the compiler inlines into a probe loop.
// The open-addressing table uses it for every operation on 1-word keys
// (insert and probe alike), so it need not match HashWords; like
// HashWords it never returns 0.
func HashWord(w uint64) uint64 {
	return FinishHash(w ^ 0x9e3779b97f4a7c15)
}

// EqualWords reports element-wise equality of two word slices of the same
// length. Callers guarantee matching lengths (tables store fixed-width
// keys); mismatched lengths compare unequal.
func EqualWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if b[i] != w {
			return false
		}
	}
	return true
}

// FromWords builds a vector of the given width from raw little-endian
// words, copying them. It returns an error when the word count does not
// match the width or bits are set beyond it — the same validation FromKey
// applies to serialized keys.
func FromWords(words []uint64, width int) (*Bits, error) {
	v, err := View(words, width)
	if err != nil {
		return nil, err
	}
	return v.Clone(), nil
}

// View returns a width-bit vector over words without copying them — the
// allocation-free way to treat received mask words as a vector. It
// applies FromWords's validation. The vector aliases words: a change to
// either shows in the other.
func View(words []uint64, width int) (Bits, error) {
	if len(words) != wordsFor(width) {
		return Bits{}, fmt.Errorf("bitset: %d words do not match width %d (want %d)", len(words), width, wordsFor(width))
	}
	if rem := width % wordBits; rem != 0 && words[len(words)-1]>>uint(rem) != 0 {
		return Bits{}, fmt.Errorf("bitset: words have bits beyond width %d", width)
	}
	return Bits{words: words, width: width}, nil
}

// FromKey reconstructs a vector of the given width from a Key() string.
// It returns an error if the key length does not match the width.
func FromKey(key string, width int) (*Bits, error) {
	nw := wordsFor(width)
	if len(key) != nw*8 {
		return nil, fmt.Errorf("bitset: key length %d does not match width %d (want %d bytes)", len(key), width, nw*8)
	}
	b := New(width)
	for i := 0; i < nw; i++ {
		b.words[i] = getUint64LE(key[i*8:])
	}
	// Validate tail bits: a well-formed key never has bits beyond width.
	tail := b.Clone()
	tail.maskTail()
	if !tail.Equal(b) {
		return nil, fmt.Errorf("bitset: key has bits beyond width %d", width)
	}
	return b, nil
}

func getUint64LE(s string) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(s[i]) << (8 * uint(i))
	}
	return v
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (b *Bits) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.width {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Indices returns the indices of all set bits in increasing order.
func (b *Bits) Indices() []int {
	out := make([]int, 0, b.Count())
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// String renders the vector with bit 0 rightmost, matching the paper's
// examples (e.g. "0011" for taxa {A,B} of {A,B,C,D} with A at bit 0).
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.width)
	for i := b.width - 1; i >= 0; i-- {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse builds a vector from a String()-formatted bit string
// (bit 0 rightmost). Any rune other than '0' or '1' is an error.
func Parse(s string) (*Bits, error) {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			b.Set(len(s) - 1 - i)
		default:
			return nil, fmt.Errorf("bitset: invalid character %q in %q", r, s)
		}
	}
	return b, nil
}

// MustParse is Parse but panics on error. For tests and literals.
func MustParse(s string) *Bits {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}
