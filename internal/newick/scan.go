package newick

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// Event is one step of a Scanner's walk over a Newick statement. A
// subtree arrives as its Open, its children's events, then its Close, so
// Leaf and Close events complete nodes in postorder.
type Event uint8

const (
	// Open is a '(' starting an internal node.
	Open Event = iota + 1
	// Leaf is a named leaf; Label holds its name and Length its optional
	// branch length.
	Leaf
	// Close is the ')' ending an internal node, after its optional label
	// and branch length were read.
	Close
	// End is the ';' ending the statement. Nothing but whitespace and
	// comments follows it.
	End
)

// Scanner walks one Newick statement as a stream of events without
// building a tree: no node structs, no label strings, and no allocation
// once its scratch buffers have grown. It is the package's one grammar:
// Parse and Reader build their trees from its events, and
// bipart.Extractor.ExtractNewick turns them straight into splits. The
// grammar: structural bytes end bare labels, '_' is decoded as a space
// in bare labels, quoted labels unescape doubled quotes, [...] comments
// nest, and branch lengths are read as strconv.ParseFloat reads them
// after strings.TrimSpace. Text after the statement's ';' may only be
// whitespace and comments; a second tree there is an error. Errors are
// *ParseError with the offset and line within the statement; a blank
// statement, which Parse reports as io.EOF, is one too. It fires the
// parse-tree fault point once per statement.
//
// A Scanner is reused across statements via Reset and is not safe for
// concurrent use.
type Scanner struct {
	// src is the part of text that reads may reach: all of it, unless
	// the MaxTreeBytes budget cuts it short (cut).
	src, text string
	cut       bool
	pos       int
	depth     int
	state     scanState
	// pend is the lookahead token, already lexed, that the next state
	// consumes.
	pend    span
	hasPend bool
	// extra is set while a second tree after the statement's ';' is
	// being validated; its events are swallowed.
	extra bool
	err   error // the statement's error, once one occurred

	label     []byte // decoded label of the current Leaf or Close
	num       []byte // scratch for decoding a branch length
	length    float64
	hasLength bool

	// Limits (set by limit; zero means none). The byte budget is the
	// streaming reader's: a tree's window opens after its first token,
	// at treeStart, and reads before that still count against the
	// previous tree's window. endIsRead makes reaching the end of text a
	// read, as it is at the end of a stream but not after a statement's
	// own ';'.
	budget, maxTaxa, leaves int
	treeStart               int
	endIsRead               bool
	// blank is set when the statement holds no token at all.
	blank bool
	// Parallel workers allocate their scanners (and the extractors that
	// end in one) side by side; the pad keeps the per-token writes off the
	// cache lines of the next worker's.
	_ [64]byte
}

// tokenKind enumerates the lexical token classes of the Newick grammar.
type tokenKind int

const (
	tokEOF   tokenKind = iota
	tokOpen            // (
	tokClose           // )
	tokComma           // ,
	tokColon           // :
	tokSemi            // ;
	tokLabel           // bare or quoted label, or a branch length
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokOpen:
		return "'('"
	case tokClose:
		return "')'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokSemi:
		return "';'"
	case tokLabel:
		return "label"
	default:
		return fmt.Sprintf("tokenKind(%d)", int(k))
	}
}

// span is a token located in the statement: for a label, src[pos:end]
// is its undecoded source text (quotes included).
type span struct {
	kind     tokenKind
	pos, end int
}

type scanState uint8

const (
	stStart scanState = iota
	stNode            // a node starts at the next token
	stAfter           // a node just ended
	stDone
)

// Reset points the scanner at a new statement.
func (s *Scanner) Reset(stmt string) {
	*s = Scanner{src: stmt, text: stmt, treeStart: -1, label: s.label[:0], num: s.num[:0]}
}

// limit applies lim to the statement just Reset. carried is what remains
// of the previous tree's byte window at the statement's first byte;
// endIsRead says the statement is not cut off at its own ';'.
func (s *Scanner) limit(lim Limits, carried int, endIsRead bool) {
	s.budget, s.maxTaxa, s.endIsRead = lim.MaxTreeBytes, lim.MaxTaxa, endIsRead
	s.window(carried)
}

// window lets reads reach only the statement's first n bytes, when a byte
// budget is set; a read past them is a limit error (overBudget).
func (s *Scanner) window(n int) {
	if s.budget <= 0 {
		return
	}
	s.src, s.cut = s.text, false
	if n < len(s.text) || (n == len(s.text) && s.endIsRead) {
		s.src, s.cut = s.text[:max(n, 0)], true
	}
}

// openTree starts a tree whose first token was just read: its byte window
// and taxon count begin here.
func (s *Scanner) openTree() {
	s.treeStart, s.leaves = s.pos, 0
	s.window(s.pos + s.budget)
}

// overBudget is the error for a read past the byte window.
func (s *Scanner) overBudget() *ParseError {
	return &ParseError{Pos: len(s.src), Line: 1 + strings.Count(s.src, "\n"), Limit: true,
		Msg: fmt.Sprintf("tree exceeds %d-byte limit", s.budget)}
}

// Label returns the decoded name of the current Leaf, or the internal
// label of the current Close (empty when it has none). The bytes are
// valid until the next call to Next.
func (s *Scanner) Label() []byte { return s.label }

// Length returns the current node's branch length and whether it has one.
func (s *Scanner) Length() (float64, bool) { return s.length, s.hasLength }

// Next returns the next event. After End or an error the statement is
// finished, and Next keeps returning that same outcome.
func (s *Scanner) Next() (Event, error) {
	for s.err == nil && s.state != stDone {
		ev, ok := s.quick()
		if ok {
			if ev != 0 {
				return ev, nil
			}
			continue
		}
		ev, err := s.step()
		if err != nil {
			s.err = err
			break
		}
		if ev != 0 && !s.extra {
			return ev, nil
		}
	}
	if s.err != nil {
		return 0, s.err
	}
	return End, nil
}

// quick is step's common case, decided straight from the bytes: inside a
// tree (depth > 0, no token pending, no extra tree being validated) it
// takes a '(', a ',', a bare leaf label ending directly at ',', ')' or
// ':', or a ')' with an optional bare internal label. A leaf or ')' may
// carry a ':' and a plain decimal length (see plainDecimal) ending at a
// structural byte. Anything else — quotes, whitespace, comments,
// exponents, a read reaching the end of src, a leaf past MaxTaxa —
// returns ok false with nothing consumed, so step handles it, and every
// error, limit and position still comes from step. On success the
// scanner is where step would have left it after lexing the same tokens,
// minus the lookahead step keeps pending, which is lexed again next.
func (s *Scanner) quick() (ev Event, ok bool) {
	src, i := s.src, s.pos
	if s.hasPend || s.extra || s.depth == 0 || i >= len(src) {
		return 0, false
	}
	switch c := src[i]; {
	case s.state == stNode && c == '(':
		s.pos++
		s.depth++
		return Open, true
	case s.state == stNode && !structural[c]:
		if s.maxTaxa > 0 && s.leaves >= s.maxTaxa {
			return 0, false
		}
		j := bareEnd(src, i)
		if j == len(src) || (src[j] != ',' && src[j] != ')' && src[j] != ':') {
			return 0, false
		}
		if !s.quickLength(j) {
			return 0, false
		}
		s.label = appendBare(s.label[:0], src[i:j])
		s.leaves++
		s.state = stAfter
		return Leaf, true
	case s.state == stAfter && c == ',':
		s.pos++
		s.state = stNode
		return 0, true
	case s.state == stAfter && c == ')':
		j := bareEnd(src, i+1)
		if j == len(src) || (src[j] != ',' && src[j] != ')' && src[j] != ':' && src[j] != ';') {
			return 0, false
		}
		if !s.quickLength(j) {
			return 0, false
		}
		s.depth--
		s.label = appendBare(s.label[:0], src[i+1:j])
		return Close, true
	}
	return 0, false
}

// quickLength reads the optional ":length" that starts at src[j], when it
// is a plain decimal ending at a structural byte, and moves past it; it
// reports false, reading nothing, otherwise. With no ':' at j it moves to
// j with no length.
func (s *Scanner) quickLength(j int) bool {
	if s.src[j] != ':' {
		s.pos, s.length, s.hasLength = j, 0, false
		return true
	}
	v, n, ok := plainDecimal(s.src[j+1:])
	end := j + 1 + n
	if !ok || end == len(s.src) || !structural[s.src[end]] {
		return false
	}
	s.pos, s.length, s.hasLength = end, v, true
	return true
}

// bareEnd returns the end of the run of non-structural bytes at src[i:].
func bareEnd(src string, i int) int {
	for i < len(src) && !structural[src[i]] {
		i++
	}
	return i
}

// step advances the state machine by at most one event; a zero event
// means "keep going".
func (s *Scanner) step() (Event, error) {
	switch s.state {
	case stStart:
		tok, err := s.lex()
		if err != nil {
			return 0, err
		}
		if tok.kind == tokEOF {
			s.blank = true
		} else {
			if err := faultinject.Hit(faultinject.PointParseTree); err != nil {
				// Injected parse faults impersonate malformed trees, so
				// lenient ingest exercises the path real corruption takes.
				return 0, s.errorAt(tok.pos, err.Error())
			}
			s.openTree()
		}
		s.pend, s.hasPend = tok, true
		s.state = stNode
		return 0, nil

	case stNode:
		tok, err := s.next()
		if err != nil {
			return 0, err
		}
		switch tok.kind {
		case tokOpen:
			s.depth++
			return Open, nil
		case tokLabel:
			s.label = s.decode(tok, s.label)
			after, err := s.nodeLength()
			if err != nil {
				return 0, err
			}
			if len(s.label) == 0 {
				return 0, s.errorAt(after.pos, "leaf without a name")
			}
			if s.leaves++; s.maxTaxa > 0 && s.leaves > s.maxTaxa {
				e := s.errorAt(after.pos, fmt.Sprintf("tree exceeds %d-taxon limit", s.maxTaxa))
				e.Limit = true
				return 0, e
			}
			s.state = stAfter
			return Leaf, nil
		}
		return 0, s.errorAt(tok.pos, fmt.Sprintf("expected '(' or label, found %s", tok.kind))

	case stAfter:
		tok, err := s.next()
		if err != nil {
			return 0, err
		}
		if s.depth == 0 {
			if tok.kind != tokSemi {
				return 0, s.errorAt(tok.pos, fmt.Sprintf("expected ';' after tree, found %s", tok.kind))
			}
			return s.end()
		}
		switch tok.kind {
		case tokComma:
			s.state = stNode
			return 0, nil
		case tokClose:
			s.depth--
			la, err := s.peek()
			if err != nil {
				return 0, err
			}
			s.label = s.label[:0]
			if la.kind == tokLabel {
				s.hasPend = false
				s.label = s.decode(la, s.label)
			}
			if _, err := s.nodeLength(); err != nil {
				return 0, err
			}
			return Close, nil
		}
		return 0, s.errorAt(tok.pos, fmt.Sprintf("expected ',' or ')' in subtree, found %s", tok.kind))
	}
	return 0, nil
}

// end handles a ';' at depth 0. Only whitespace and comments may follow;
// a second tree is parsed (silently, in its own byte window) so a
// malformed one reports its own error before the extra-tree one.
func (s *Scanner) end() (Event, error) {
	if s.extra {
		return 0, &ParseError{Pos: 0, Msg: "unexpected extra tree after ';'"}
	}
	tok, err := s.lex()
	if err != nil {
		return 0, err
	}
	if tok.kind == tokEOF {
		s.state = stDone
		return End, nil
	}
	s.extra = true
	s.openTree()
	s.pend, s.hasPend = tok, true
	s.state = stNode
	return 0, nil
}

// nodeLength consumes a node's optional ":length". It returns the token
// that followed the node's label: the ':' when a length was read, else
// the lookahead, left pending for the next state.
func (s *Scanner) nodeLength() (span, error) {
	s.length, s.hasLength = 0, false
	tok, err := s.peek()
	if err != nil || tok.kind != tokColon {
		return tok, err
	}
	s.hasPend = false
	lt, err := s.lex()
	if err != nil {
		return tok, err
	}
	if lt.kind != tokLabel {
		return tok, s.errorAt(lt.pos, fmt.Sprintf("expected branch length after ':', found %s", lt.kind))
	}
	// Lengths are nearly always verbatim, parsed straight from the
	// statement; a quoted or underscored one is decoded first.
	text := s.src[lt.pos:lt.end]
	if text[0] == '\'' || strings.IndexByte(text, '_') >= 0 {
		s.num = s.decode(lt, s.num)
		text = string(s.num)
	}
	v, err := parseLength(text)
	if err != nil {
		return tok, s.errorAt(lt.pos, fmt.Sprintf("invalid branch length %q", text))
	}
	s.length, s.hasLength = v, true
	return tok, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseLength is strconv.ParseFloat(strings.TrimSpace(text), 64), with
// plainDecimal as its fast path for the plain decimals branch lengths
// nearly always are; anything else goes to ParseFloat.
func parseLength(text string) (float64, error) {
	if v, n, ok := plainDecimal(text); ok && n == len(text) {
		return v, nil
	}
	return strconv.ParseFloat(strings.TrimSpace(text), 64)
}

// plainDecimal parses the plain decimal at the start of text ("0.0320576",
// "-1.5"): an optional sign, then at least one and at most 15 digits with
// at most one '.' among them. It returns the value and the decimal's
// length, the first byte that is neither a digit nor its first '.'; ok is
// false when text does not start with one, or a 16th digit follows. With
// at most 15 digits and no exponent the value is an exact integer divided
// by an exact power of ten, and IEEE division rounds that quotient
// correctly — the very bits strconv.ParseFloat returns (it takes the same
// exact path).
func plainDecimal(text string) (v float64, n int, ok bool) {
	i, neg := 0, false
	if text != "" && (text[0] == '-' || text[0] == '+') {
		neg, i = text[0] == '-', 1
	}
	var mant uint64
	digits, frac, dot := 0, 0, false
	for ; i < len(text); i++ {
		c := text[i]
		if c == '.' && !dot {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if digits == len(pow10)-1 {
			return 0, 0, false
		}
		mant = mant*10 + uint64(c-'0')
		digits++
		if dot {
			frac++
		}
	}
	if digits == 0 {
		return 0, 0, false
	}
	v = float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	return v, i, true
}

// peek returns the lookahead token, lexing it if none is pending.
func (s *Scanner) peek() (span, error) {
	if !s.hasPend {
		tok, err := s.lex()
		if err != nil {
			return span{}, err
		}
		s.pend, s.hasPend = tok, true
	}
	return s.pend, nil
}

// next consumes the lookahead token, lexing one if none is pending.
func (s *Scanner) next() (span, error) {
	tok, err := s.peek()
	s.hasPend = false
	return tok, err
}

// errorAt builds a ParseError at offset pos, stamped with the line the
// scanner has read up to.
func (s *Scanner) errorAt(pos int, msg string) *ParseError {
	return &ParseError{Pos: pos, Line: 1 + strings.Count(s.src[:s.pos], "\n"), Msg: msg}
}

// lex reads the next token; a label's text is decoded only when a caller
// asks (decode).
func (s *Scanner) lex() (span, error) {
	src := s.src
	for s.pos < len(src) {
		b := src[s.pos]
		switch b {
		case ' ', '\t', '\n', '\r':
			s.pos++
			continue
		case '[':
			s.pos++
			start, depth := s.pos, 1
			for depth > 0 {
				if s.pos >= len(src) {
					if s.cut {
						return span{}, s.overBudget()
					}
					return span{}, s.errorAt(start, "unterminated comment")
				}
				switch src[s.pos] {
				case '[':
					depth++
				case ']':
					depth--
				}
				s.pos++
			}
			continue
		case '(', ')', ',', ':', ';':
			s.pos++
			return span{kind: punctKind[b], pos: s.pos - 1}, nil
		case '\'':
			return s.lexQuoted()
		}
		return s.lexBare()
	}
	if s.cut {
		return span{}, s.overBudget()
	}
	return span{kind: tokEOF, pos: s.pos}, nil
}

// punctKind maps each one-byte punctuation token to its kind.
var punctKind = [256]tokenKind{'(': tokOpen, ')': tokClose, ',': tokComma, ':': tokColon, ';': tokSemi}

// lexQuoted finds the end of a single-quoted label starting at the
// opening quote; a doubled quote inside is an escaped quote.
func (s *Scanner) lexQuoted() (span, error) {
	start, i := s.pos, s.pos+1
	for {
		j := strings.IndexByte(s.src[i:], '\'')
		if j < 0 {
			s.pos = len(s.src)
			if s.cut {
				return span{}, s.overBudget()
			}
			return span{}, s.errorAt(start, "unterminated quoted label")
		}
		i += j + 1
		if i == len(s.src) && s.cut {
			return span{}, s.overBudget()
		}
		if i < len(s.src) && s.src[i] == '\'' {
			i++
			continue
		}
		s.pos = i
		return span{kind: tokLabel, pos: start, end: i}, nil
	}
}

// lexBare finds the end of an unquoted label or number: a maximal run of
// non-structural bytes.
func (s *Scanner) lexBare() (span, error) {
	start, src := s.pos, s.src
	i := bareEnd(src, start)
	if i == len(src) && s.cut {
		return span{}, s.overBudget()
	}
	if i == start {
		return span{}, s.errorAt(start, "empty label")
	}
	s.pos = i
	return span{kind: tokLabel, pos: start, end: i}, nil
}

// structural marks the bytes that end a bare label: punctuation, quote,
// comment brackets and whitespace.
var structural = func() (t [256]bool) {
	for _, b := range []byte("(),:;[]' \t\n\r") {
		t[b] = true
	}
	return t
}()

// decode appends the decoded text of label token t to dst[:0]: a quoted
// label loses its quotes and unescapes doubled quotes, a bare one reads
// '_' as a space.
func (s *Scanner) decode(t span, dst []byte) []byte {
	text := s.src[t.pos:t.end]
	dst = dst[:0]
	if text[0] == '\'' {
		text = text[1 : len(text)-1]
		for {
			j := strings.Index(text, "''")
			if j < 0 {
				return append(dst, text...)
			}
			dst = append(dst, text[:j+1]...)
			text = text[j+2:]
		}
	}
	return appendBare(dst, text)
}

// appendBare appends the bare label text to dst, reading '_' as a space.
func appendBare(dst []byte, text string) []byte {
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == '_' {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst
}
