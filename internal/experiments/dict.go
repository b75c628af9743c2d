package experiments

import (
	"repro/internal/bfhtable"
	"repro/internal/bipart"
	"repro/internal/bitset"
	"repro/internal/core"
)

// dictHash is the paper's dict-based frequency hash, kept as the
// BFHRF-MAP and map / map+compressed ablation baseline: a Go map from
// each bipartition's canonical key string — the raw mask bytes
// (Bipartition.AppendKey) or the §IX compressed encoding
// (AppendCompactKey) — to its frequency. It is filled from an
// open-addressing build's entries and answers Plain queries only; the
// production hash (internal/core) never uses it.
type dictHash struct {
	m       map[string]uint32
	compact bool
	sum     int64
	r       int64
}

// newDictHash re-keys every entry of h into a dict.
func newDictHash(h *core.FreqHash, compact bool) (*dictHash, error) {
	d := &dictHash{
		m:       make(map[string]uint32, h.UniqueBipartitions()),
		compact: compact,
		sum:     int64(h.TotalBipartitions()),
		r:       int64(h.NumTrees()),
	}
	n := h.Taxa().Len()
	var buf []byte
	var err error
	for s := 0; s < h.NumShards() && err == nil; s++ {
		h.RangeShardRaw(s, func(words []uint64, e bfhtable.Entry) bool {
			var mask *bitset.Bits
			if mask, err = bitset.FromWords(words, n); err != nil {
				return false
			}
			buf = d.key(buf[:0], bipart.FromMask(mask, 0))
			d.m[string(buf)] = e.Freq
			return true
		})
	}
	return d, err
}

// key appends b's dict key under the hash's key scheme.
func (d *dictHash) key(dst []byte, b bipart.Bipartition) []byte {
	if d.compact {
		return b.AppendCompactKey(dst)
	}
	return b.AppendKey(dst)
}

// footprintBytes estimates the dict's resident size: per entry one
// 16-byte string header, the key bytes and the value, plus roughly 40
// bytes of bucket machinery at typical load factors.
func (d *dictHash) footprintBytes() int64 {
	var b int64
	for k := range d.m {
		b += int64(len(k)) + 64
	}
	return b
}

// keyBytes is the summed length of every stored key.
func (d *dictHash) keyBytes() int {
	total := 0
	for k := range d.m {
		total += len(k)
	}
	return total
}

// dictProber answers Plain average-RF queries against a dictHash,
// reusing one key buffer so a lookup allocates nothing.
type dictProber struct {
	d   *dictHash
	buf []byte
}

// averageRF is Algorithm 2's Plain fold over dict lookups.
func (p *dictProber) averageRF(bs []bipart.Bipartition) float64 {
	var hits int64
	for _, b := range bs {
		p.buf = p.d.key(p.buf[:0], b)
		hits += int64(p.d.m[string(p.buf)])
	}
	return float64(p.d.sum-hits+int64(len(bs))*p.d.r-hits) / float64(p.d.r)
}
