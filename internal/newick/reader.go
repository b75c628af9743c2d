package newick

import (
	"bufio"
	"bytes"
	"io"

	"repro/internal/tree"
)

// Reader streams trees from a multi-tree Newick source. It cuts the
// stream into statements at top-level semicolons — honouring quoted
// labels and nested bracket comments, so splitting is far cheaper than
// parsing — and builds each tree from its statement's Scanner events.
// Errors carry stream offsets and lines.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	// Split state of a statement cut short by the byte budget, which
	// SkipTree finishes.
	inQuote bool
	depth   int
	partial bool
	// off and line locate the next unread byte in the stream.
	off, line int
	// origin is the stream offset where the current tree's byte window
	// opened (see Limits.MaxTreeBytes).
	origin int
	count  int
	limits Limits
}

// NewReader wraps r in a streaming Newick reader.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{br: br, line: 1}
}

// SetLimits applies per-tree resource limits to subsequent Reads.
func (r *Reader) SetLimits(l Limits) { r.limits = l }

// TreesRead returns the number of trees successfully read so far.
func (r *Reader) TreesRead() int { return r.count }

// Read parses and returns the next tree, or io.EOF when input is
// exhausted. After a failed Read the next one starts at the following
// statement.
func (r *Reader) Read() (*tree.Tree, error) {
	if err := r.SkipTree(); err != nil {
		return nil, err
	}
	start, line := r.off, r.line
	// No read for this tree goes past max bytes of its statement: the
	// window it inherits ends by carried, and its own is budget long and
	// opens within the inherited one.
	budget := r.limits.MaxTreeBytes
	carried := r.origin + budget - start
	max := 0
	if budget > 0 {
		max = carried + budget
	}
	stmt, term, err := r.statement(max)
	if err != nil {
		return nil, err
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.sc.Reset(string(stmt))
	b.sc.limit(r.limits, carried, !term)
	t, err := b.build()
	if b.sc.treeStart >= 0 {
		r.origin = start + b.sc.treeStart
	}
	if err != nil {
		// The tree after a bad one starts a fresh byte window.
		r.origin = r.off
		return nil, inStream(err, start, line)
	}
	r.count++
	return t, nil
}

// ReadStatement returns the next statement's raw text, through its ';',
// for callers that parse in parallel workers; it ignores Limits. Text
// left at the end of input that is not a complete statement is a
// *ParseError.
func (r *Reader) ReadStatement() (string, error) {
	if err := r.SkipTree(); err != nil {
		return "", err
	}
	start, line := r.off, r.line
	stmt, term, err := r.statement(0)
	if err != nil {
		return "", err
	}
	if term {
		return string(stmt), nil
	}
	// Scan the unterminated tail for the error a Read would report.
	b := builders.Get().(*builder)
	defer b.release()
	b.sc.Reset(string(stmt))
	_, err = b.build()
	return "", inStream(err, start, line)
}

// inStream moves a statement's ParseError to the stream position of the
// statement, which starts at offset start on line line.
func inStream(err error, start, line int) error {
	if pe, ok := err.(*ParseError); ok {
		pe.Pos += start
		pe.Line += line - 1
	}
	return err
}

// SkipTree abandons the current (malformed or oversized) tree so the next
// Read starts on the following statement. A failed Read has already
// consumed its statement, so this is a no-op, except after a byte-budget
// error, where it discards the rest of the statement through its ';'.
// Returns io.EOF if the input ends before that ';'.
func (r *Reader) SkipTree() error {
	if !r.partial {
		return nil
	}
	r.partial = false
	for {
		chunk, err := r.br.ReadSlice(';')
		r.advance(chunk)
		switch {
		case err == nil:
			if !r.inQuote && r.depth == 0 {
				r.origin = r.off
				return nil
			}
		case err != bufio.ErrBufferFull:
			return err
		}
	}
}

// ReadAll reads every remaining tree. Prefer streaming Read for large files.
func (r *Reader) ReadAll() ([]*tree.Tree, error) {
	var out []*tree.Tree
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// statement reads the next statement: through its top-level ';' (term),
// or through the end of input. When max > 0 and the statement outgrows
// it, reading stops within one buffered chunk past max and the Reader is
// left partial. The text is valid until the next read.
func (r *Reader) statement(max int) (text []byte, term bool, err error) {
	r.buf = r.buf[:0]
	r.inQuote, r.depth = false, 0
	for {
		chunk, err := r.br.ReadSlice(';')
		r.advance(chunk)
		term := err == nil && !r.inQuote && r.depth == 0
		if term && len(r.buf) == 0 {
			return chunk, true, nil // the common one-chunk statement, used in place
		}
		r.buf = append(r.buf, chunk...)
		switch {
		case term:
			return r.buf, true, nil
		case err == io.EOF:
			return r.buf, false, nil
		case err != nil && err != bufio.ErrBufferFull:
			return nil, false, err
		case max > 0 && len(r.buf) >= max:
			r.partial = true
			return r.buf, false, nil
		}
	}
}

// advance moves the stream position and the split state over chunk: a
// ';' ends a statement only outside quotes and comments.
func (r *Reader) advance(chunk []byte) {
	r.off += len(chunk)
	r.line += bytes.Count(chunk, newline)
	if !r.inQuote && r.depth == 0 && bytes.IndexByte(chunk, '\'') < 0 && bytes.IndexByte(chunk, '[') < 0 {
		return
	}
	for _, c := range chunk {
		switch {
		case r.inQuote:
			r.inQuote = c != '\'' // doubled quotes toggle twice, harmlessly
		case r.depth > 0:
			switch c {
			case '[':
				r.depth++
			case ']':
				r.depth--
			}
		case c == '\'':
			r.inQuote = true
		case c == '[':
			r.depth++
		}
	}
}

var newline = []byte{'\n'}
