package bipart

import (
	"fmt"

	"repro/internal/bitset"
)

// rawSplit is one completed non-root node of a tree being extracted: its
// leaf-set mask (not yet canonical) and its branch length.
type rawSplit struct {
	mask      *bitset.Bits
	length    float64
	hasLength bool
}

// accum is the one extraction accumulator behind Extract and
// ExtractNewick. A walk of either source (tree nodes or scanner events)
// reports each subtree's opening, each leaf and each subtree's closing
// in postorder; the accumulator keeps one pooled mask per open subtree,
// collects every completed subtree's mask with its branch length, and
// tracks the catalogue bookkeeping (duplicates in Extractor.seen,
// coverage, the anchor). Once the walk ends and the anchor is known, finish canonicalizes the
// collected masks, drops trivial ones, applies Filter and hashes.
type accum struct {
	n       int
	present int
	anchor  int
	// err is the first catalogue error (unknown or duplicate leaf).
	err error
	// open holds the masks of the open subtrees, open[0] the root's.
	open   []*bitset.Bits
	splits []rawSplit
	// rootKids counts the root's completed children; second is the index
	// in splits of the root's second child (-1 when it was not collected).
	rootKids, second int
}

// begin starts one extraction: under ReuseMasks the previous call's
// emitted masks are dead now and go back to the pool.
func (e *Extractor) begin() {
	if e.ReuseMasks {
		e.pool = append(e.pool, e.emitted...)
		e.emitted = e.emitted[:0]
	}
	a := &e.acc
	a.n = e.Taxa.Len()
	e.resetSeen(a.n)
	a.present, a.anchor, a.err = 0, -1, nil
	a.open, a.splits = a.open[:0], a.splits[:0]
	a.rootKids, a.second = 0, -1
}

// openSubtree starts an internal node's subtree.
func (e *Extractor) openSubtree() {
	e.acc.open = append(e.acc.open, e.getMask(e.acc.n))
}

// leaf records a leaf with catalogue index idx (-1 when the label is not
// in the catalogue) and the length of its pendant edge. It returns false,
// recording nothing, for an unknown or duplicate leaf; the caller names
// it with badLeaf.
func (e *Extractor) leaf(idx int, length float64, hasLength bool) bool {
	a := &e.acc
	if idx < 0 || e.seen[idx] {
		return false
	}
	e.seen[idx] = true
	a.present++
	if a.anchor == -1 || idx < a.anchor {
		a.anchor = idx
	}
	if len(a.open) == 0 {
		return true // a single-leaf tree has no edges
	}
	a.open[len(a.open)-1].Set(idx)
	// A pendant edge is always trivial: collect it only when trivial
	// splits are kept.
	var m *bitset.Bits
	if e.IncludeTrivial {
		m = e.getMask(a.n)
		m.Set(idx)
	}
	e.complete(m, length, hasLength)
	return true
}

// badLeaf records the first catalogue error: label is unknown when idx
// is -1, a duplicate otherwise.
func (e *Extractor) badLeaf(idx int, label any) {
	switch {
	case e.acc.err != nil:
	case idx < 0:
		e.acc.err = fmt.Errorf("bipart: leaf %q not in taxon catalogue", label)
	default:
		e.acc.err = fmt.Errorf("bipart: duplicate leaf %q", label)
	}
}

// closeSubtree ends the innermost open subtree, whose edge to its parent
// has the given length. The root has no edge.
func (e *Extractor) closeSubtree(length float64, hasLength bool) {
	a := &e.acc
	m := a.open[len(a.open)-1]
	a.open = a.open[:len(a.open)-1]
	if len(a.open) == 0 {
		e.putMask(m)
		return
	}
	a.open[len(a.open)-1].Or(m)
	e.complete(m, length, hasLength)
}

// complete collects the edge above a finished subtree (m nil: a pendant
// edge not kept) and counts the root's children.
func (e *Extractor) complete(m *bitset.Bits, length float64, hasLength bool) {
	a := &e.acc
	at := -1
	if m != nil {
		at = len(a.splits)
		a.splits = append(a.splits, rawSplit{mask: m, length: length, hasLength: hasLength})
	}
	if len(a.open) == 1 {
		if a.rootKids++; a.rootKids == 2 {
			a.second = at
		}
	}
}

// finish ends the walk. A non-nil err (a syntax error of the source)
// takes precedence over the catalogue errors, then too few taxa, then
// incomplete coverage. On success the collected masks become the
// canonical bipartitions, in postorder edge order.
func (e *Extractor) finish(err error) ([]Bipartition, error) {
	a := &e.acc
	if err == nil {
		err = a.err
	}
	if err == nil && a.present < 2 {
		err = fmt.Errorf("bipart: tree has %d taxa; need at least 2", a.present)
	}
	if err == nil && e.RequireComplete && a.present != a.n {
		err = fmt.Errorf("bipart: tree covers %d of %d catalogue taxa; complete coverage required (missing %q)",
			a.present, a.n, e.Taxa.Name(firstUnset(e.seen[:a.n])))
	}
	if err != nil {
		for _, m := range a.open {
			e.putMask(m)
		}
		for _, s := range a.splits {
			e.putMask(s.mask)
		}
		return nil, err
	}

	// In the rooted-binary serialization (root with 2 children) the two
	// root edges are the same unrooted edge; keep only the first.
	second := a.second
	if a.rootKids != 2 {
		second = -1
	}
	var out []Bipartition
	if e.ReuseMasks {
		out = e.outBuf[:0]
	}
	for i, s := range a.splits {
		c := s.mask
		if i != second {
			if c.Test(a.anchor) {
				c.ComplementInPlace()
			}
			b := Bipartition{mask: c, hash: maskHash(c.Words()), Length: s.length, HasLength: s.hasLength}
			if (e.IncludeTrivial || !b.IsTrivial(a.present)) && (e.Filter == nil || e.Filter(b)) {
				out = append(out, b)
				if e.ReuseMasks {
					e.emitted = append(e.emitted, c)
				}
				continue
			}
		}
		e.putMask(c)
	}
	if e.ReuseMasks {
		e.outBuf = out
	}
	return out, nil
}

// firstUnset is the index of the first false entry of seen, the first
// catalogue taxon a tree lacks.
func firstUnset(seen []bool) int {
	for i, ok := range seen {
		if !ok {
			return i
		}
	}
	return -1
}
