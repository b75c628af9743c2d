package bipart

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/newick"
)

// rawSplit is one completed non-root node of a statement being extracted:
// its leaf-set mask (not yet canonical) and its branch length.
type rawSplit struct {
	mask      *bitset.Bits
	length    float64
	hasLength bool
}

// ExtractNewick is Extract over one raw Newick statement, with no tree in
// between: a newick.Scanner walks the text while a stack of pooled masks
// (one per open subtree) accumulates leaf sets, and leaf labels are looked
// up in the catalogue as byte views. A second pass over the collected
// masks — once the anchor taxon is known — canonicalizes, drops trivial
// splits, applies Filter and hashes, so the result equals
// Extract(newick.Parse(stmt)) bit for bit and in the same postorder,
// under every Extractor setting. Syntax errors are the parser's
// *newick.ParseError and take precedence over catalogue errors, which
// carry Extract's messages.
//
// With ReuseMasks set, ExtractNewick allocates nothing in steady state.
func (e *Extractor) ExtractNewick(stmt string) ([]Bipartition, error) {
	n := e.Taxa.Len()
	if e.ReuseMasks {
		e.pool = append(e.pool, e.emitted...)
		e.emitted = e.emitted[:0]
	}
	seen := e.resetSeen(n)
	present, anchor := 0, -1
	var leafErr error

	// open holds the masks of the open subtrees, open[0] the root's.
	// second is the index in splits of the root's second child (-1 when
	// it was not collected), rootKids the root's child count so far.
	open, splits := e.open[:0], e.splits[:0]
	second, rootKids := -1, 0
	complete := func(m *bitset.Bits, length float64, hasLength bool) {
		at := -1
		if m != nil {
			at = len(splits)
			splits = append(splits, rawSplit{mask: m, length: length, hasLength: hasLength})
		}
		if len(open) == 1 {
			if rootKids++; rootKids == 2 {
				second = at
			}
		}
	}
	sc := &e.scan
	sc.Reset(stmt)
	var err error
scan:
	for {
		var ev newick.Event
		ev, err = sc.Next()
		if err != nil {
			break
		}
		switch ev {
		case newick.Open:
			open = append(open, e.getMask(n))
		case newick.Leaf:
			idx, ok := e.Taxa.IndexBytes(sc.Label())
			switch {
			case !ok:
				if leafErr == nil {
					leafErr = fmt.Errorf("bipart: leaf %q not in taxon catalogue", sc.Label())
				}
				continue
			case seen[idx]:
				if leafErr == nil {
					leafErr = fmt.Errorf("bipart: duplicate leaf %q", sc.Label())
				}
				continue
			}
			seen[idx] = true
			present++
			if anchor == -1 || idx < anchor {
				anchor = idx
			}
			if len(open) == 0 {
				continue // a single-leaf tree has no edges
			}
			open[len(open)-1].Set(idx)
			// A pendant edge is always trivial: collect it only when
			// trivial splits are kept.
			var m *bitset.Bits
			if e.IncludeTrivial {
				m = e.getMask(n)
				m.Set(idx)
			}
			length, has := sc.Length()
			complete(m, length, has)
		case newick.Close:
			m := open[len(open)-1]
			open = open[:len(open)-1]
			if len(open) == 0 {
				e.putMask(m) // the root has no parent edge
				continue
			}
			open[len(open)-1].Or(m)
			length, has := sc.Length()
			complete(m, length, has)
		case newick.End:
			break scan
		}
	}
	e.open, e.splits = open[:0], splits[:0]
	if err == nil {
		err = leafErr
	}
	if err == nil && present < 2 {
		err = fmt.Errorf("bipart: tree has %d taxa; need at least 2", present)
	}
	if err == nil && e.RequireComplete && present != n {
		err = fmt.Errorf("bipart: tree covers %d of %d catalogue taxa; complete coverage required", present, n)
	}
	if err != nil {
		for _, m := range open {
			e.putMask(m)
		}
		for _, s := range splits {
			e.putMask(s.mask)
		}
		return nil, err
	}

	// In the rooted-binary serialization (root with 2 children) the two
	// root edges are the same unrooted edge; keep only the first.
	if rootKids != 2 {
		second = -1
	}
	var out []Bipartition
	if e.ReuseMasks {
		out = e.outBuf[:0]
	}
	for i, s := range splits {
		c := s.mask
		if i != second {
			if c.Test(anchor) {
				c.ComplementInPlace()
			}
			b := Bipartition{mask: c, hash: maskHash(c.Words()), Length: s.length, HasLength: s.hasLength}
			if (e.IncludeTrivial || !b.IsTrivial(present)) && (e.Filter == nil || e.Filter(b)) {
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
