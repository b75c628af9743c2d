package collection

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/bipart"
	"repro/internal/newick"
	"repro/internal/tree"
)

// ErrRawUnsupported is returned by NextRaw when the underlying format
// cannot be split into raw per-tree statements (e.g. NEXUS with a
// TRANSLATE table, whose trees are not self-contained).
var ErrRawUnsupported = errors.New("collection: raw statements unsupported for this format")

// RawSource is implemented by sources that can hand out *unparsed* tree
// statements, letting engines parse in parallel workers — the "parallelize
// the reading of trees" dimension of the paper's DSMP/BFHRF design.
// NextRaw returns one complete Newick statement (terminated by ';') per
// call and io.EOF at the end.
type RawSource interface {
	Source
	NextRaw() (string, error)
}

// NextRaw implements RawSource for plain-Newick files (including gzipped
// ones). NEXUS inputs return ErrRawUnsupported; callers fall back to the
// parsed path.
func (s *File) NextRaw() (string, error) {
	if s.r == nil {
		if err := s.Reset(); err != nil {
			return "", err
		}
	}
	if !s.rawOK {
		return "", ErrRawUnsupported
	}
	stmt, err := s.nr.ReadStatement()
	if err == io.EOF {
		if s.count < 0 {
			s.count = s.seen
		}
		return "", io.EOF
	}
	if err != nil {
		return "", fmt.Errorf("collection: %s: %w", s.Path, err)
	}
	s.seen++
	return stmt, nil
}

// NextRaw implements RawSource for Head when the wrapped source supports
// it, preserving the N-tree cap. As with File, use either Next or NextRaw
// within one pass, not both.
func (h *Head) NextRaw() (string, error) {
	if h.seen >= h.N {
		return "", io.EOF
	}
	rs, ok := h.Src.(RawSource)
	if !ok {
		return "", ErrRawUnsupported
	}
	stmt, err := rs.NextRaw()
	if err != nil {
		return "", err
	}
	h.seen++
	return stmt, nil
}

// Text is an in-memory RawSource over Newick statements — the collection
// behind the Newick-string entry points. Its statements are split once, up
// front, by the newick.Reader that splits a file's, so engines extract
// their splits in parallel workers; Next parses one on demand for
// consumers that need a tree.
type Text struct {
	stmts []string
	pos   int
}

// FromNewick splits newicks, joined by newlines, into statements. A
// string may hold several statements, or a statement may span strings;
// text after the last ';' other than whitespace and comments is an error.
func FromNewick(newicks []string) (*Text, error) {
	nr := newick.NewReader(strings.NewReader(strings.Join(newicks, "\n")))
	t := &Text{}
	for {
		stmt, err := nr.ReadStatement()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("collection: %w", err)
		}
		t.stmts = append(t.stmts, stmt)
	}
}

// NextRaw implements RawSource.
func (t *Text) NextRaw() (string, error) {
	if t.pos >= len(t.stmts) {
		return "", io.EOF
	}
	t.pos++
	return t.stmts[t.pos-1], nil
}

// Next implements Source, parsing the next statement.
func (t *Text) Next() (*tree.Tree, error) {
	stmt, err := t.NextRaw()
	if err != nil {
		return nil, err
	}
	tr, err := newick.Parse(stmt)
	if err != nil {
		return nil, fmt.Errorf("collection: tree %d: %w", t.pos, err)
	}
	return tr, nil
}

// Reset implements Source.
func (t *Text) Reset() error { t.pos = 0; return nil }

// Count implements Counter.
func (t *Text) Count() int { return len(t.stmts) }

// Item is one tree of a collection as a Reader yields it: an unparsed
// Newick statement when the source hands them out, else a parsed tree.
type Item struct {
	stmt string
	tree *tree.Tree
	raw  bool
}

// Splits reduces the item to its canonical splits: ExtractNewick on a
// statement, which parses and extracts in one scan with no tree in
// between, and Extract on a tree. Both give the same splits, in the same
// order, for the same tree.
func (it Item) Splits(ex *bipart.Extractor) ([]bipart.Bipartition, error) {
	if it.raw {
		return ex.ExtractNewick(it.stmt)
	}
	return ex.Extract(it.tree)
}

// Reader reads one pass over a Source in stream order, as raw statements
// when the source can hand them out and as parsed trees otherwise. It is
// the one place that chooses: engines hand its items to workers, which
// reduce each with Item.Splits, so a file's trees are parsed in the
// workers and an in-memory collection's are not parsed at all.
type Reader struct {
	src    Source
	raw    RawSource // nil when the pass yields parsed trees
	primed bool      // stmt and err hold the read that chose the mode
	stmt   string
	err    error
}

// NewReader resets src and starts a pass over it. It reads the first raw
// statement to learn whether the source supports them, and keeps it for
// Next; on ErrRawUnsupported it resets src again and reads trees.
func NewReader(src Source) (*Reader, error) {
	if err := src.Reset(); err != nil {
		return nil, err
	}
	r := &Reader{src: src}
	if rs, ok := src.(RawSource); ok {
		stmt, err := rs.NextRaw()
		if err != ErrRawUnsupported {
			r.raw, r.primed, r.stmt, r.err = rs, true, stmt, err
			return r, nil
		}
		if err := src.Reset(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Next returns the next item, or io.EOF after the last.
func (r *Reader) Next() (Item, error) {
	if r.raw == nil {
		t, err := r.src.Next()
		return Item{tree: t}, err
	}
	stmt, err := r.stmt, r.err
	if r.primed {
		r.primed = false
	} else {
		stmt, err = r.raw.NextRaw()
	}
	return Item{stmt: stmt, raw: true}, err
}
