package collection

import (
	"errors"
	"fmt"
	"io"
	"strings"

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
