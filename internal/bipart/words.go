package bipart

import (
	"fmt"

	"repro/internal/bitset"
)

// WordsView turns a flat run of canonical split words — the distributed
// RPC wire, where the coordinator extracts each tree once and ships only
// its masks — back into bipartitions without copying a word. A view is
// reused across View calls, so a warm view allocates nothing. Not safe
// for concurrent use.
type WordsView struct {
	masks []bitset.Bits
	out   []Bipartition
}

// View validates words as consecutive splits of trees covering the whole
// width-n catalogue, each ⌈n/64⌉ words long, and returns them as
// bipartitions whose masks alias words. Every split must be what
// Extract emits for such a tree (RequireComplete, no trivial splits): the
// anchor taxon 0 on the 0 side, no bit at or beyond n, and between 2 and
// n−2 taxa on the 1 side. The result, with Length unset, is valid until
// the next View call and only while words is unchanged.
func (v *WordsView) View(words []uint64, n int) ([]Bipartition, error) {
	nw := (n + 63) / 64
	if nw == 0 {
		if len(words) != 0 {
			return nil, fmt.Errorf("bipart: %d split words over an empty catalogue", len(words))
		}
		return nil, nil
	}
	if len(words)%nw != 0 {
		return nil, fmt.Errorf("bipart: %d split words are not a whole number of %d-word splits", len(words), nw)
	}
	k := len(words) / nw
	if cap(v.masks) < k {
		v.masks = make([]bitset.Bits, k)
		v.out = make([]Bipartition, k)
	}
	masks, out := v.masks[:k], v.out[:k]
	for i := range out {
		w := words[i*nw : (i+1)*nw : (i+1)*nw]
		m, err := bitset.View(w, n)
		if err != nil {
			return nil, fmt.Errorf("bipart: split %d: %w", i, err)
		}
		if w[0]&1 != 0 {
			return nil, fmt.Errorf("bipart: split %d is not canonical: taxon 0 is on its 1 side", i)
		}
		if c := bitset.PopCountWords(w); c < 2 || c > n-2 {
			return nil, fmt.Errorf("bipart: split %d is empty or trivial: %d of %d taxa on its 1 side", i, c, n)
		}
		masks[i] = m
		out[i] = Bipartition{mask: &masks[i], hash: maskHash(w)}
	}
	return out, nil
}

// AppendWords appends the canonical mask words of every split in bs to
// dst — the encoding View reverses.
func AppendWords(dst []uint64, bs []Bipartition) []uint64 {
	for _, b := range bs {
		dst = append(dst, b.Words()...)
	}
	return dst
}
