package newick

// The retired byte-at-a-time lexer and recursive-descent parser, kept as
// the differential reference for the Scanner-built Reader and Parse
// (FuzzParseMatchesReference). Only the names changed; do not "fix" it —
// its behaviour, quirks included, is what the production code matches.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/tree"
)

// refParse is the reference for ParseLimits: one Read, then a second
// Read that must find the end of input.
func refParse(s string, lim Limits) (*tree.Tree, error) {
	r := newRefReader(strings.NewReader(s))
	r.SetLimits(lim)
	t, err := r.Read()
	if err != nil {
		return nil, err
	}
	if _, err := r.Read(); err != io.EOF {
		if err == nil {
			return nil, &ParseError{Pos: 0, Msg: "unexpected extra tree after ';'"}
		}
		return nil, err
	}
	return t, nil
}

// refToken is one lexical unit with its source position (byte offset within the
// current tree's text) for error reporting.
type refToken struct {
	kind tokenKind
	text string
	pos  int
}

// refLexer tokenizes a single Newick tree description. It handles:
//   - bare labels (underscores decoded as spaces, per the Newick convention)
//   - single-quoted labels with doubled-quote escapes ('it”s')
//   - bracketed comments [...] which are skipped (including NHX-style)
//   - arbitrary whitespace between tokens
type refLexer struct {
	r      *bufio.Reader
	pos    int
	line   int // 1-based, counts '\n' bytes consumed
	peeked *refToken
	last   byte // most recently read byte, for unreadByte line accounting

	// Per-tree byte budget: when budget > 0, readByte fails once more than
	// budget bytes have been consumed since treeStart. Turns a pathological
	// or hostile tree (one unterminated 100MB "label") into a clean,
	// position-stamped error instead of an unbounded allocation.
	budget    int
	treeStart int
}

func newRefLexer(r io.Reader) *refLexer {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &refLexer{r: br, line: 1}
}

// startTree marks the budget window for the next tree.
func (l *refLexer) startTree() { l.treeStart = l.pos }

func (l *refLexer) readByte() (byte, error) {
	if l.budget > 0 && l.pos-l.treeStart >= l.budget {
		return 0, &ParseError{Pos: l.pos, Line: l.line, Limit: true,
			Msg: fmt.Sprintf("tree exceeds %d-byte limit", l.budget)}
	}
	b, err := l.r.ReadByte()
	if err == nil {
		l.pos++
		l.last = b
		if b == '\n' {
			l.line++
		}
	}
	return b, err
}

func (l *refLexer) unreadByte() {
	if err := l.r.UnreadByte(); err == nil {
		l.pos--
		if l.last == '\n' {
			l.line--
		}
	}
}

// skipToSemi discards input through the next top-level ';' so a lenient
// reader can resynchronize after a malformed tree. Quoted labels and
// bracket comments are honored so an embedded ';' does not end the skip
// early; the byte budget is NOT applied (the whole point is to get past
// an oversized or mangled tree). Returns io.EOF if input ends first.
func (l *refLexer) skipToSemi() error {
	l.peeked = nil
	budget := l.budget
	l.budget = 0
	defer func() { l.budget = budget }()
	depth, inQuote := 0, false
	for {
		b, err := l.readByte()
		if err != nil {
			return err
		}
		switch {
		case inQuote:
			if b == '\'' {
				inQuote = false
			}
		case depth > 0:
			if b == '[' {
				depth++
			} else if b == ']' {
				depth--
			}
		case b == '\'':
			inQuote = true
		case b == '[':
			depth++
		case b == ';':
			return nil
		}
	}
}

// peek returns the next refToken without consuming it.
func (l *refLexer) peek() (refToken, error) {
	if l.peeked == nil {
		t, err := l.lex()
		if err != nil {
			return refToken{}, err
		}
		l.peeked = &t
	}
	return *l.peeked, nil
}

// next consumes and returns the next refToken.
func (l *refLexer) next() (refToken, error) {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t, nil
	}
	return l.lex()
}

func (l *refLexer) lex() (refToken, error) {
	for {
		b, err := l.readByte()
		if err == io.EOF {
			return refToken{kind: tokEOF, pos: l.pos}, nil
		}
		if err != nil {
			return refToken{}, err
		}
		switch {
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			continue
		case b == '[':
			if err := l.skipComment(); err != nil {
				return refToken{}, err
			}
			continue
		case b == '(':
			return refToken{kind: tokOpen, text: "(", pos: l.pos - 1}, nil
		case b == ')':
			return refToken{kind: tokClose, text: ")", pos: l.pos - 1}, nil
		case b == ',':
			return refToken{kind: tokComma, text: ",", pos: l.pos - 1}, nil
		case b == ':':
			return refToken{kind: tokColon, text: ":", pos: l.pos - 1}, nil
		case b == ';':
			return refToken{kind: tokSemi, text: ";", pos: l.pos - 1}, nil
		case b == '\'':
			return l.lexQuoted()
		default:
			l.unreadByte()
			return l.lexBare()
		}
	}
}

// skipComment consumes a bracketed comment. Newick comments may nest.
func (l *refLexer) skipComment() error {
	depth := 1
	start := l.pos
	for depth > 0 {
		b, err := l.readByte()
		if err == io.EOF {
			return &ParseError{Pos: start, Line: l.line, Msg: "unterminated comment"}
		}
		if err != nil {
			return err
		}
		switch b {
		case '[':
			depth++
		case ']':
			depth--
		}
	}
	return nil
}

// lexQuoted consumes a single-quoted label; the opening quote has already
// been read. A doubled quote inside the label denotes a literal quote.
func (l *refLexer) lexQuoted() (refToken, error) {
	start := l.pos - 1
	var sb strings.Builder
	for {
		b, err := l.readByte()
		if err == io.EOF {
			return refToken{}, &ParseError{Pos: start, Line: l.line, Msg: "unterminated quoted label"}
		}
		if err != nil {
			return refToken{}, err
		}
		if b != '\'' {
			sb.WriteByte(b)
			continue
		}
		nb, err := l.readByte()
		if err == io.EOF {
			return refToken{kind: tokLabel, text: sb.String(), pos: start}, nil
		}
		if err != nil {
			return refToken{}, err
		}
		if nb == '\'' {
			sb.WriteByte('\'')
			continue
		}
		l.unreadByte()
		return refToken{kind: tokLabel, text: sb.String(), pos: start}, nil
	}
}

// lexBare consumes an unquoted label or number: a maximal run of bytes that
// are not structural characters, whitespace, or comment/quote openers.
// Underscores are decoded to spaces per the Newick convention.
func (l *refLexer) lexBare() (refToken, error) {
	start := l.pos
	var sb strings.Builder
	for {
		b, err := l.readByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return refToken{}, err
		}
		if structural[b] {
			l.unreadByte()
			break
		}
		if b == '_' {
			sb.WriteByte(' ')
		} else {
			sb.WriteByte(b)
		}
	}
	text := sb.String()
	if text == "" {
		return refToken{}, &ParseError{Pos: start, Line: l.line, Msg: "empty label"}
	}
	return refToken{kind: tokLabel, text: text, pos: start}, nil
}

// refReader streams trees from a multi-tree Newick source. Each call to Read
// returns the next tree; io.EOF signals a clean end of input.
type refReader struct {
	lx     *refLexer
	count  int
	limits Limits
	leaves int // leaf count of the tree currently being parsed
}

// newRefReader wraps r in a streaming Newick reader.
func newRefReader(r io.Reader) *refReader {
	return &refReader{lx: newRefLexer(r)}
}

// SetLimits applies per-tree resource limits to subsequent Reads.
func (r *refReader) SetLimits(l Limits) {
	r.limits = l
	r.lx.budget = l.MaxTreeBytes
}

// SkipTree abandons the current (malformed or oversized) tree and
// advances past its terminating ';' so the next Read starts on the
// following tree. Returns io.EOF if the input ends before a ';'.
func (r *refReader) SkipTree() error {
	return r.lx.skipToSemi()
}

// Read parses and returns the next tree, or io.EOF when input is exhausted.
func (r *refReader) Read() (*tree.Tree, error) {
	// Skip to the first meaningful refToken; bare EOF here is a clean end.
	tok, err := r.lx.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tokEOF {
		return nil, io.EOF
	}
	if err := faultinject.Hit(faultinject.PointParseTree); err != nil {
		// Injected parse faults impersonate malformed trees so lenient
		// ingest exercises exactly the recovery path real corruption takes.
		return nil, &ParseError{Pos: tok.pos, Line: r.lx.line, Msg: err.Error()}
	}
	r.lx.startTree()
	r.leaves = 0
	root, err := r.parseNode()
	if err != nil {
		return nil, err
	}
	tok, err = r.lx.next()
	if err != nil {
		return nil, err
	}
	if tok.kind != tokSemi {
		return nil, &ParseError{Pos: tok.pos, Line: r.lx.line, Msg: fmt.Sprintf("expected ';' after tree, found %s", tok.kind)}
	}
	r.count++
	return tree.New(root), nil
}

// parseNode parses a subtree: either "(child,child,...)label:length" or a
// leaf "label:length".
func (r *refReader) parseNode() (*tree.Node, error) {
	tok, err := r.lx.peek()
	if err != nil {
		return nil, err
	}
	n := &tree.Node{}
	if tok.kind == tokOpen {
		r.lx.next() // consume '('
		for {
			child, err := r.parseNode()
			if err != nil {
				return nil, err
			}
			n.AddChild(child)
			sep, err := r.lx.next()
			if err != nil {
				return nil, err
			}
			if sep.kind == tokComma {
				continue
			}
			if sep.kind == tokClose {
				break
			}
			return nil, &ParseError{Pos: sep.pos, Line: r.lx.line, Msg: fmt.Sprintf("expected ',' or ')' in subtree, found %s", sep.kind)}
		}
	} else if tok.kind != tokLabel {
		return nil, &ParseError{Pos: tok.pos, Line: r.lx.line, Msg: fmt.Sprintf("expected '(' or label, found %s", tok.kind)}
	}

	// Optional label.
	tok, err = r.lx.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tokLabel {
		r.lx.next()
		n.Name = tok.text
	}

	// Optional ":length".
	tok, err = r.lx.peek()
	if err != nil {
		return nil, err
	}
	if tok.kind == tokColon {
		r.lx.next()
		lt, err := r.lx.next()
		if err != nil {
			return nil, err
		}
		if lt.kind != tokLabel {
			return nil, &ParseError{Pos: lt.pos, Line: r.lx.line, Msg: fmt.Sprintf("expected branch length after ':', found %s", lt.kind)}
		}
		// Undo the underscore-to-space decoding for numbers (numbers never
		// legitimately contain underscores, but be strict anyway).
		v, err := strconv.ParseFloat(strings.TrimSpace(lt.text), 64)
		if err != nil {
			return nil, &ParseError{Pos: lt.pos, Line: r.lx.line, Msg: fmt.Sprintf("invalid branch length %q", lt.text)}
		}
		n.Length = v
		n.HasLength = true
	}

	if len(n.Children) == 0 {
		if n.Name == "" {
			return nil, &ParseError{Pos: tok.pos, Line: r.lx.line, Msg: "leaf without a name"}
		}
		r.leaves++
		if r.limits.MaxTaxa > 0 && r.leaves > r.limits.MaxTaxa {
			return nil, &ParseError{Pos: tok.pos, Line: r.lx.line, Limit: true,
				Msg: fmt.Sprintf("tree exceeds %d-taxon limit", r.limits.MaxTaxa)}
		}
	}
	return n, nil
}
