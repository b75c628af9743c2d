package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/newick"
	"repro/internal/tree"
)

// bodyBufs recycles request body buffers. Decoded strings are copies, so
// a buffer is free again as soon as decodeQuery returns.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodeQuery reads and validates the request body: the whole body read
// once under the size cap, decoded in one scan (decodeQuick) or else by
// encoding/json, then each tree parsed as a whole string under the
// configured limits, so text after its ';' is an error. Returns the
// parsed request, the trees, and on failure the HTTP status to answer
// with.
func (s *Service) decodeQuery(w http.ResponseWriter, r *http.Request) (*queryRequest, []*tree.Tree, int, error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	body, err := readBody(w, r, s.cfg.maxBody(), bp)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, nil, http.StatusBadRequest, fmt.Errorf("malformed JSON: %w", err)
	}
	var req queryRequest
	if !decodeQuick(body, &req) {
		if err := decodeJSON(body, &req); err != nil {
			return nil, nil, http.StatusBadRequest, err
		}
	}
	if !ValidName(req.Collection) {
		return nil, nil, http.StatusBadRequest,
			fmt.Errorf("invalid collection name (want 1..%d chars of [A-Za-z0-9_.-], no leading . or -)", nameMaxLen)
	}
	if len(req.Trees) == 0 {
		return nil, nil, http.StatusBadRequest, fmt.Errorf("no query trees")
	}
	if len(req.Trees) > s.cfg.maxTrees() {
		return nil, nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d query trees exceeds the per-request cap of %d", len(req.Trees), s.cfg.maxTrees())
	}
	trees := make([]*tree.Tree, len(req.Trees))
	for i, nwk := range req.Trees {
		t, err := newick.ParseLimits(nwk, s.cfg.Limits)
		if err != nil {
			return nil, nil, http.StatusBadRequest, fmt.Errorf("tree %d: %w", i, err)
		}
		trees[i] = t
	}
	return &req, trees, 0, nil
}

// readBody reads the whole request body into *bp under a MaxBytesReader
// capped at limit, so a larger body fails with *http.MaxBytesError. A
// Content-Length within the cap sizes the buffer, with one spare byte so
// the read that sees EOF does not grow it; otherwise the buffer grows as
// the bytes arrive.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, bp *[]byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if cl := r.ContentLength; cl >= 0 && cl <= limit {
		size = cl + 1
	}
	buf := (*bp)[:0]
	if int64(cap(buf)) < size {
		buf = make([]byte, 0, size)
	}
	defer func() { *bp = buf }()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeJSON is the reference decoder, used for every body decodeQuick
// declines: encoding/json on the same bytes, then nothing but whitespace
// after the object.
func decodeJSON(body []byte, req *queryRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("malformed JSON: %w", err)
	}
	if skipSpace(body, int(dec.InputOffset())) != len(body) {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// decodeQuick decodes the common body shape in one scan: one object
// whose keys are exactly "collection", "variant" or "trees", each at
// most once; string values free of '\\', control bytes and bytes ≥ 0x80
// (so their JSON decoding is the bytes themselves); "trees" an array of
// such strings; JSON whitespace anywhere and nothing else after the
// object. On any other body it returns false with req untouched, and the
// caller falls back to decodeJSON — so the result, whenever it returns
// true, is what encoding/json would decode (FuzzServeQuery holds it to
// that).
func decodeQuick(b []byte, req *queryRequest) bool {
	var q queryRequest
	var have uint8 // one bit per key seen
	member := func(i int) (int, bool) {
		key, i, ok := quickString(b, i)
		if !ok {
			return 0, false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
			return 0, false
		}
		i = skipSpace(b, i+1)
		var bit uint8
		var dst *string
		switch string(key) {
		case "collection":
			bit, dst = 1, &q.Collection
		case "variant":
			bit, dst = 2, &q.Variant
		case "trees":
			// An empty array decodes to an empty, non-nil slice, as in
			// encoding/json.
			bit, q.Trees = 4, []string{}
			i, ok = quickList(b, i, '[', ']', func(i int) (int, bool) {
				v, next, ok := quickString(b, i)
				q.Trees = append(q.Trees, string(v))
				return next, ok
			})
		default:
			return 0, false
		}
		if dst != nil {
			var v []byte
			v, i, ok = quickString(b, i)
			*dst = string(v)
		}
		if !ok || have&bit != 0 {
			return 0, false
		}
		have |= bit
		return i, true
	}
	i, ok := quickList(b, skipSpace(b, 0), '{', '}', member)
	if !ok || skipSpace(b, i) != len(b) {
		return false
	}
	*req = q
	return true
}

// quickList scans a JSON object or array that opens at b[i]: items
// separated by ',' up to the closing byte, whitespace between tokens.
// item decodes the item starting at its index and returns the index
// past it. quickList returns the index past the closing byte.
func quickList(b []byte, i int, open, close byte, item func(int) (int, bool)) (int, bool) {
	if i == len(b) || b[i] != open {
		return 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == close {
		return i + 1, true
	}
	for {
		j, ok := item(i)
		if !ok {
			return 0, false
		}
		if i = skipSpace(b, j); i == len(b) {
			return 0, false
		}
		switch b[i] {
		case close:
			return i + 1, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return 0, false
		}
	}
}

// quickString returns the contents of the JSON string starting at b[i]
// and the index past its closing quote, provided every content byte is
// printable ASCII other than '\\'; otherwise ok is false.
func quickString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
