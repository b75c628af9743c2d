// Package collection abstracts tree collections (the paper's Q and R) as
// resettable streams, so that engines can either hold a collection in
// memory (DS/DSMP/HashRF, as in the paper) or stream it tree-by-tree
// (BFHRF's dynamic loading).
package collection

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/tree"
)

// Source is a resettable stream of trees. Next returns io.EOF after the
// last tree. Reset rewinds to the first tree; a Source must support any
// number of Reset/iterate cycles.
type Source interface {
	Next() (*tree.Tree, error)
	Reset() error
}

// Counter is implemented by sources that know their size without a scan.
// A negative Count means the size is not (yet) known.
type Counter interface {
	Count() int
}

// Len returns the number of trees in src, using Counter when available and
// otherwise scanning (and resetting) the source.
func Len(src Source) (int, error) {
	if c, ok := src.(Counter); ok {
		if n := c.Count(); n >= 0 {
			return n, nil
		}
	}
	if err := src.Reset(); err != nil {
		return 0, err
	}
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	return n, src.Reset()
}

// Slice is an in-memory Source over a fixed slice of trees.
type Slice struct {
	Trees []*tree.Tree
	pos   int
}

// FromTrees wraps trees in an in-memory Source.
func FromTrees(trees []*tree.Tree) *Slice { return &Slice{Trees: trees} }

// Next implements Source.
func (s *Slice) Next() (*tree.Tree, error) {
	if s.pos >= len(s.Trees) {
		return nil, io.EOF
	}
	t := s.Trees[s.pos]
	s.pos++
	return t, nil
}

// Reset implements Source.
func (s *Slice) Reset() error { s.pos = 0; return nil }

// Count implements Counter.
func (s *Slice) Count() int { return len(s.Trees) }

// File streams trees from a Newick file, reopening it on Reset. It never
// holds more than one parsed tree in memory.
type File struct {
	Path  string
	f     *os.File
	gz    *gzip.Reader
	r     treeReader
	nr    *newick.Reader // plain Newick: Next, NextRaw and resync all use it
	rawOK bool           // NextRaw allowed: plain Newick, no ingest options
	count int            // trees seen on the first full pass; -1 until known
	seen  int
	opts  Options
	diags []Diag // trees skipped this pass (lenient mode)
	// reported is the ordinal of the last skipped tree already reported
	// to OnDiag and the skip counter, on this pass or an earlier one.
	reported int
}

// treeReader is the streaming interface both format readers satisfy.
type treeReader interface {
	Read() (*tree.Tree, error)
}

// OpenFile returns a streaming Source over the tree file at path. The
// format is sniffed from content: gzip-compressed input is decompressed
// transparently, and a leading "#NEXUS" selects the NEXUS reader (MrBayes
// and PAUP* output); anything else is parsed as plain Newick.
func OpenFile(path string) (*File, error) {
	fs := &File{Path: path, count: -1}
	if err := fs.Reset(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Next implements Source. In lenient mode (Options.Lenient), per-tree
// damage — a malformed statement, a tree over its size or taxon limit —
// is recorded as a Diag and skipped; only stream-level failures
// (unreadable input, byte budget exhausted) surface as errors.
func (s *File) Next() (*tree.Tree, error) {
	if s.r == nil {
		if err := s.Reset(); err != nil {
			return nil, err
		}
	}
	for {
		t, err := s.r.Read()
		if err == io.EOF {
			if s.count < 0 {
				s.count = s.seen
			}
			return nil, io.EOF
		}
		if err != nil {
			if s.recover(err) {
				continue
			}
			return nil, fmt.Errorf("collection: %s: %w", s.Path, err)
		}
		s.seen++
		return t, nil
	}
}

// Count implements Counter: the tree count is known (non-negative) only
// after at least one complete pass over the file.
func (s *File) Count() int { return s.count }

// Reset implements Source.
func (s *File) Reset() error {
	if s.gz != nil {
		s.gz.Close()
		s.gz = nil
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if err := faultinject.Hit(faultinject.PointIOOpen); err != nil {
		return fmt.Errorf("collection: %s: %w", s.Path, err)
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return err
	}
	s.f = f
	br := bufio.NewReader(f)
	// Transparent gzip: sniff the two-byte magic.
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			s.f = nil
			return fmt.Errorf("collection: %s: %w", s.Path, err)
		}
		s.gz = gz
		br = bufio.NewReader(gz)
	}
	// The parser reads through the fault-injection tap (free when
	// disarmed) and, when a budget is set, through the byte-budget
	// enforcer — counting decompressed bytes, so a gzip bomb trips it too.
	var rd io.Reader = faultinject.Reader(faultinject.PointIORead, br)
	if s.opts.MaxInputBytes > 0 {
		rd = newBudgetReader(rd, s.opts.MaxInputBytes, s.Path)
	}
	pbr := bufio.NewReader(rd)
	// Format sniff: "#NEXUS" (optionally after whitespace) vs Newick.
	// For plain Newick one reader serves Next and NextRaw: per pass, use
	// either, never both. The raw fast path is disabled whenever ingest
	// options are set — raw statements bypass the per-tree parser, so
	// limits and lenient skipping could not be enforced on them.
	if isNexus(pbr) {
		xr := nexus.NewReader(pbr)
		xr.SetLimits(s.opts.Limits)
		s.r, s.nr, s.rawOK = xr, nil, false
	} else {
		nr := newick.NewReader(pbr)
		nr.SetLimits(s.opts.Limits)
		s.r, s.nr, s.rawOK = nr, nr, s.opts.zero()
	}
	s.seen = 0
	s.diags = nil
	return nil
}

// isNexus peeks at the first non-whitespace bytes for the NEXUS magic.
func isNexus(br *bufio.Reader) bool {
	const probe = 64
	head, _ := br.Peek(probe)
	trimmed := strings.TrimLeft(string(head), " \t\r\n")
	return len(trimmed) >= 6 && strings.EqualFold(trimmed[:6], "#NEXUS")
}

// Close releases the underlying file.
func (s *File) Close() error {
	if s.gz != nil {
		s.gz.Close()
		s.gz = nil
	}
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

// Generator synthesizes trees on demand via Make(i), never holding the
// collection in memory. Make must be deterministic in i so that Reset
// reproduces the same collection.
type Generator struct {
	N    int
	Make func(i int) *tree.Tree
	pos  int
}

// Next implements Source.
func (g *Generator) Next() (*tree.Tree, error) {
	if g.pos >= g.N {
		return nil, io.EOF
	}
	t := g.Make(g.pos)
	g.pos++
	return t, nil
}

// Reset implements Source.
func (g *Generator) Reset() error { g.pos = 0; return nil }

// Count implements Counter.
func (g *Generator) Count() int { return g.N }

// ReadAll materializes src into memory (resetting it first and afterwards).
func ReadAll(src Source) ([]*tree.Tree, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	var out []*tree.Tree
	for {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, src.Reset()
}

// Head wraps src, exposing only its first N trees without materializing
// them (unlike Limit). Reset passes through.
type Head struct {
	Src  Source
	N    int
	seen int
}

// Next implements Source.
func (h *Head) Next() (*tree.Tree, error) {
	if h.seen >= h.N {
		return nil, io.EOF
	}
	t, err := h.Src.Next()
	if err != nil {
		return nil, err
	}
	h.seen++
	return t, nil
}

// Reset implements Source.
func (h *Head) Reset() error {
	h.seen = 0
	return h.Src.Reset()
}

// Count implements Counter when the underlying source does.
func (h *Head) Count() int {
	if c, ok := h.Src.(Counter); ok {
		if n := c.Count(); n >= 0 && n < h.N {
			return n
		}
		if n := c.Count(); n >= 0 {
			return h.N
		}
	}
	return -1
}

// Limit returns an in-memory Source over the first n trees of src
// ("each data point is the first r trees of the data set", paper Fig. 1).
func Limit(src Source, n int) (Source, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	trees := make([]*tree.Tree, 0, n)
	for len(trees) < n {
		t, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	return FromTrees(trees), nil
}
