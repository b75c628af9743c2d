package collection

import (
	"bufio"
	"bytes"
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
	if s.raw == nil {
		return "", ErrRawUnsupported
	}
	stmt, err := s.raw.next()
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
// front, by the same rules a file's raw scanner applies, so engines
// extract their splits in parallel workers; Next parses one on demand for
// consumers that need a tree.
type Text struct {
	stmts []string
	pos   int
}

// FromNewick splits newicks, joined by newlines, into statements. A
// string may hold several statements, or a statement may span strings;
// text after the last ';' other than whitespace and comments is an error.
func FromNewick(newicks []string) (*Text, error) {
	rs := newRawScanner(bufio.NewReader(strings.NewReader(strings.Join(newicks, "\n"))))
	t := &Text{}
	for {
		stmt, err := rs.next()
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

// rawScanner splits a Newick stream into per-tree statements at top-level
// semicolons, respecting quoted labels and (nested) bracket comments. It
// performs no parsing beyond that, so splitting is far cheaper than tree
// construction and the expensive work lands in parallel workers. It reads
// ';'-terminated chunks straight out of the buffered reader and only
// walks a chunk byte by byte when it holds a quote or a comment.
type rawScanner struct {
	br  *bufio.Reader
	buf []byte
}

func newRawScanner(br *bufio.Reader) *rawScanner { return &rawScanner{br: br} }

func (rs *rawScanner) next() (string, error) {
	rs.buf = rs.buf[:0]
	inQuote := false
	depth := 0
	for {
		chunk, err := rs.br.ReadSlice(';')
		rs.buf = append(rs.buf, chunk...)
		if inQuote || depth > 0 || bytes.IndexByte(chunk, '\'') >= 0 || bytes.IndexByte(chunk, '[') >= 0 {
			inQuote, depth, _ = splitState(chunk, inQuote, depth)
		}
		switch {
		case err == nil:
			if !inQuote && depth == 0 {
				return string(rs.buf), nil
			}
		case err == io.EOF:
			if _, _, content := splitState(rs.buf, false, 0); content || inQuote || depth > 0 {
				return "", fmt.Errorf("unterminated tree statement %q", clip(string(rs.buf)))
			}
			return "", io.EOF
		case err != bufio.ErrBufferFull:
			return "", err
		}
	}
}

// splitState advances the quote and comment-depth state over b — a ';'
// ends a statement only where both are clear — and reports whether b
// holds anything but whitespace and comments.
func splitState(b []byte, inQuote bool, depth int) (bool, int, bool) {
	content := false
	for _, c := range b {
		switch {
		case inQuote:
			if c == '\'' {
				inQuote = false // doubled quotes toggle twice, harmlessly
			}
		case depth > 0:
			switch c {
			case '[':
				depth++
			case ']':
				depth--
			}
		case c == '\'':
			inQuote, content = true, true
		case c == '[':
			depth++
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			content = true
		}
	}
	return inQuote, depth, content
}

func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}
