package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// checkDecodeQuick holds the one-pass decoder to encoding/json on one
// body: it either declines, or the body is one JSON object followed by
// nothing but whitespace and its result is reflect.DeepEqual to what
// json.Decoder decodes.
func checkDecodeQuick(t *testing.T, body []byte) {
	t.Helper()
	var got queryRequest
	if !decodeQuick(body, &got) {
		if !reflect.DeepEqual(got, queryRequest{}) {
			t.Fatalf("%q: declined but wrote %+v", body, got)
		}
		return
	}
	var want queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("%q: one-pass decode accepts what encoding/json rejects: %v", body, err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) != 0 {
		t.Fatalf("%q: one-pass decode accepts trailing data %q", body, rest)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: one-pass decode %#v, encoding/json %#v", body, got, want)
	}
}

// fuzzServeMaxBody caps FuzzServeQuery's bodies, small enough that the
// fuzzer reaches it.
const fuzzServeMaxBody = 2048

// serveQueryBodySeeds are the corpus of FuzzServeQuery, around one valid
// body for the test collection ("refs") with tree q.
func serveQueryBodySeeds(q string) []string {
	valid := fmt.Sprintf(`{"collection":"refs","trees":[%q]}`, q)
	ws := fmt.Sprintf(" \t{\n\"collection\" : \"refs\" ,\r\n \"variant\"\t:\"plain\" , \"trees\" : [ %q , %q ] \n} \r\n\t", q, q)
	return []string{
		valid,
		valid + "\n",
		ws,
		fmt.Sprintf(`{"trees":[%q],"variant":"weighted","collection":"refs"}`, q),
		// Escapes, \u and surrogate pairs.
		fmt.Sprintf(`{"collection":"r\u0065fs","trees":[%q]}`, q),
		`{"collection":"refs","trees":["(A,B,\"C\");"]}`,
		`{"collection":"refs","variant":"pl\u0061in","trees":["(\ud83d\ude00,B,C);","\ud800"]}`,
		`{"collection":"refs","trees":["(A\\B,\/C,\b\f\n\r\t);"]}`,
		// UTF-8 and invalid UTF-8.
		`{"collection":"refs","trees":["(Ä,B,C);"]}`,
		"{\"collection\":\"refs\",\"trees\":[\"(\xff,B,\xc3);\"]}",
		"{\"collection\":\"re\x01fs\",\"trees\":[]}",
		// Case-folded and duplicate keys, null values.
		fmt.Sprintf(`{"collection":"refs","Trees":[%q]}`, q),
		fmt.Sprintf(`{"COLLECTION":"refs","trees":[%q]}`, q),
		fmt.Sprintf(`{"collection":"refs","trees":[%q],"trees":[%q,%q]}`, q, q, q),
		fmt.Sprintf(`{"collection":"nope","collection":"refs","trees":[%q]}`, q),
		`{"collection":null,"variant":null,"trees":null}`,
		fmt.Sprintf(`{"collection":"refs","trees":[null,%q]}`, q),
		// Nested unknown fields and wrong types.
		fmt.Sprintf(`{"collection":"refs","meta":{"a":[1,{"b":null}],"c":"d"},"trees":[%q]}`, q),
		fmt.Sprintf(`{"collection":7,"trees":[%q]}`, q),
		`{"collection":"refs","trees":"((A,B),C);"}`,
		// Empty shapes, truncation, trailing bytes.
		`[]`,
		`{}`,
		`{"collection":"refs","trees":[]}`,
		`null`,
		``,
		`   `,
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		valid + "junk",
		valid + "]]]",
		valid + `{"collection":"other"}`,
		valid + valid,
		`{"collection":"refs",}`,
		`{"collection":"refs","trees":["a",]}`,
		`{,}`,
		// Whitespace JSON does not allow.
		"{\v\"collection\":\"refs\",\"trees\":[]}",
		"{\"collection\":\"refs\"\f}",
		"{\"collection\":\"refs\"}\u00a0",
	}
}

// FuzzServeQuery checks the /v1/query body decoder on any body. The
// one-pass decoder either declines or agrees with encoding/json (see
// checkDecodeQuick). The handler, run on the same bytes over a real
// local collection, never panics, answers only 2xx or 4xx, and reads at
// most one byte past MaxBodyBytes (the byte that tells the size cap it
// was exceeded). ci.sh runs a 10-second smoke; explore with
// `go test -fuzz=FuzzServeQuery ./internal/serve`.
func FuzzServeQuery(f *testing.F) {
	trees, ts := testTrees(11, 8, 6)
	svc, _ := testService(f, Config{MaxBodyBytes: fuzzServeMaxBody, MaxTrees: 4}, trees, ts)
	for _, s := range serveQueryBodySeeds(newickStrings(trees[:1])[0]) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeQuick(t, body)
		cr := &countingReader{r: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", cr)
		rec := httptest.NewRecorder()
		svc.handleQuery(rec, req)
		if rec.Code < 200 || rec.Code >= 500 {
			t.Fatalf("%q: status %d (body %s)", body, rec.Code, rec.Body)
		}
		if cr.n > fuzzServeMaxBody+1 {
			t.Fatalf("%q: read %d body bytes, cap %d", body, cr.n, fuzzServeMaxBody)
		}
	})
}

// TestDecodeQuickMatchesJSON runs the fuzz seeds, plus bodies the quick
// path must take, through the differential check, and pins which ones
// the quick path accepts.
func TestDecodeQuickMatchesJSON(t *testing.T) {
	q := "((t1,t2),(t3,t4),t5);"
	for _, s := range serveQueryBodySeeds(q) {
		checkDecodeQuick(t, []byte(s))
	}
	accept := []string{
		`{}`,
		`{"collection":"refs","trees":[]}`,
		fmt.Sprintf(`{"collection":"refs","trees":[%q]}`, q),
		fmt.Sprintf(`{"collection":"refs","trees":[%q]}`+"\n", q),
		fmt.Sprintf(" \t{\n\"variant\" : \"normalized\" ,\r\n\"trees\":[ %q , %q ],\"collection\":\"\" } \r\n", q, q),
	}
	for _, s := range accept {
		var got queryRequest
		if !decodeQuick([]byte(s), &got) {
			t.Errorf("%q: one-pass decode declines", s)
		}
	}
	decline := []string{
		fmt.Sprintf(`{"collection":"r\u0065fs","trees":[%q]}`, q),
		fmt.Sprintf(`{"collection":"refs","Trees":[%q]}`, q),
		fmt.Sprintf(`{"collection":"refs","trees":[%q],"trees":[]}`, q),
		`{"collection":null,"trees":[]}`,
		`{"collection":"refs","extra":"x","trees":[]}`,
		"{\"collection\":\"réfs\",\"trees\":[]}",
		`{"collection":"refs","trees":[]}x`,
		`{"collection":"refs","trees":[]`,
		``,
	}
	for _, s := range decline {
		var got queryRequest
		if decodeQuick([]byte(s), &got) {
			t.Errorf("%q: one-pass decode accepts %+v, want a decline", s, got)
		}
	}
}

// decodeBenchBody is an 8-tree /v1/query body on n=100 trees with
// 6-digit branch lengths, the shape of the serve benchmark's requests.
func decodeBenchBody() []byte {
	ts := taxa.Generate(100)
	rng := rand.New(rand.NewSource(1))
	var trees []string
	for i := 0; i < 8; i++ {
		tr := simphy.RandomBinary(ts, rng)
		trees = append(trees, newick.String(tr, newick.WriteOptions{BranchLengths: true, Precision: 6}))
	}
	body, err := json.Marshal(queryRequest{Collection: "refs", Trees: trees})
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkDecodeQuery reads and decodes an 8 × n=100 /v1/query body as
// decodeQuery does, through the one-pass decoder and, for comparison,
// through encoding/json; Newick parsing is not included.
func BenchmarkDecodeQuery(b *testing.B) {
	body := decodeBenchBody()
	for _, c := range []struct {
		name   string
		decode func([]byte, *queryRequest) bool
	}{
		{"one-pass", decodeQuick},
		{"encoding-json", func(b []byte, q *queryRequest) bool { return decodeJSON(b, q) == nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			w := httptest.NewRecorder()
			rd := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/v1/query", rd)
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				bp := bodyBufs.Get().(*[]byte)
				buf, err := readBody(w, r, 1<<20, bp)
				var req queryRequest
				if err != nil || !c.decode(buf, &req) || len(req.Trees) != 8 {
					b.Fatalf("decode failed: %v", err)
				}
				bodyBufs.Put(bp)
			}
		})
	}
}
