package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bfhsnap"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// testTrees generates a deterministic random collection.
func testTrees(seed int64, n, r int) ([]*tree.Tree, *taxa.Set) {
	ts := taxa.Generate(n)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*tree.Tree, r)
	for i := range trees {
		trees[i] = simphy.RandomBinary(ts, rng)
	}
	return trees, ts
}

// buildHash folds trees into a FreqHash.
func buildHash(t testing.TB, trees []*tree.Tree, ts *taxa.Set) *core.FreqHash {
	t.Helper()
	h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// newStore saves trees as epoch 1 of a fresh snapshot store and returns
// its directory.
func newStore(t testing.TB, trees []*tree.Tree, ts *taxa.Set) string {
	t.Helper()
	dir := t.TempDir()
	st, err := bfhsnap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveEpoch(buildHash(t, trees, ts)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// newwickStrings renders trees for a query body.
func newickStrings(trees []*tree.Tree) []string {
	out := make([]string, len(trees))
	for i, tr := range trees {
		out[i] = newick.String(tr, newick.DefaultWriteOptions())
	}
	return out
}

// testService builds a service over one local collection named "refs"
// and returns it with its test server.
func testService(t testing.TB, cfg Config, trees []*tree.Tree, ts *taxa.Set) (*Service, *httptest.Server) {
	t.Helper()
	cat := NewCatalog("", 0)
	t.Cleanup(cat.Close)
	b, err := OpenLocal(newStore(t, trees, ts), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("refs", b); err != nil {
		t.Fatal(err)
	}
	svc := New(cfg, cat)
	mux := http.NewServeMux()
	svc.Register(mux)
	mux.HandleFunc("/healthz", svc.WrapHealthz(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return svc, srv
}

// postQuery sends one /v1/query request and returns status, body and
// headers.
func postQuery(t *testing.T, url string, tenant string, body any) (int, []byte, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func TestQueryMatchesDirectAverageRF(t *testing.T) {
	trees, ts := testTrees(1, 16, 12)
	queries, _ := testTrees(2, 16, 5)
	// Regenerate queries on the same taxa set so labels match.
	rng := rand.New(rand.NewSource(2))
	for i := range queries {
		queries[i] = simphy.RandomBinary(ts, rng)
	}
	_, srv := testService(t, Config{}, trees, ts)

	for _, variant := range []string{"", "plain", "normalized", "weighted"} {
		code, body, _ := postQuery(t, srv.URL, "", map[string]any{
			"collection": "refs",
			"variant":    variant,
			"trees":      newickStrings(queries),
		})
		if code != 200 {
			t.Fatalf("variant %q: status %d: %s", variant, code, body)
		}
		var resp struct {
			Collection string  `json:"collection"`
			Epoch      int     `json:"epoch"`
			Variant    string  `json:"variant"`
			Coverage   float64 `json:"coverage"`
			Results    []struct {
				Index int     `json:"index"`
				AvgRF float64 `json:"avg_rf"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("variant %q: %v", variant, err)
		}
		if resp.Coverage != 1 || resp.Epoch != 1 || resp.Collection != "refs" {
			t.Fatalf("variant %q: resp meta = %+v", variant, resp)
		}
		v := core.Plain
		switch variant {
		case "normalized":
			v = core.Normalized
		case "weighted":
			v = core.Weighted
		}
		h := buildHash(t, trees, ts)
		want, err := h.AverageRF(collection.FromTrees(queries), core.QueryOptions{Workers: 1, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("variant %q: %d results, want %d", variant, len(resp.Results), len(want))
		}
		for i, w := range want {
			got := resp.Results[i]
			if got.Index != w.Index || got.AvgRF != w.AvgRF {
				t.Errorf("variant %q result %d: got (%d, %v), want (%d, %v)",
					variant, i, got.Index, got.AvgRF, w.Index, w.AvgRF)
			}
		}
	}
}

// registerDistributed shards trees across two in-process workers and
// registers the coordinator as collection name.
func registerDistributed(t *testing.T, cat *Catalog, name string, trees []*tree.Tree, ts *taxa.Set) {
	t.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := distrib.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs[i] = l.Addr().String()
	}
	coord, err := distrib.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	coord.ChunkSize = 2
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(name, &Distributed{Coord: coord}); err != nil {
		t.Fatal(err)
	}
}

// TestTracedDistributedQueryStitched: one traced /v1/query request is one
// trace, on a local and on a distributed collection alike — the backend's
// query span (core's bfh.query, or the coordinator's coord.query with the
// RPC spans beneath it) is a child of the request's serve.query span —
// and tracing does not change the answer.
func TestTracedDistributedQueryStitched(t *testing.T) {
	trees, ts := testTrees(6, 12, 10)
	svc, srv := testService(t, Config{}, trees, ts)
	registerDistributed(t, svc.cat, "dist", trees, ts)
	for _, tc := range []struct {
		name, collection string
		child            string // the backend's query span
		rpc              bool   // whether RPC spans sit under it
	}{
		{"local", "refs", core.SpanQuery, false},
		{"distributed", "dist", "coord.query", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := map[string]any{"collection": tc.collection, "trees": newickStrings(trees[:3])}
			prev := obs.SetCurrentTracer(obs.NewTracer(8))
			defer obs.SetCurrentTracer(prev)
			code, untraced, _ := postQuery(t, srv.URL, "", body)
			if code != 200 {
				t.Fatalf("untraced: status %d: %s", code, untraced)
			}
			tr := obs.NewTracer(8)
			tr.SetSampleRate(1)
			obs.SetCurrentTracer(tr)
			code, traced, _ := postQuery(t, srv.URL, "", body)
			if code != 200 {
				t.Fatalf("traced: status %d: %s", code, traced)
			}
			if !bytes.Equal(traced, untraced) {
				t.Errorf("tracing changed the answer:\ntraced   %s\nuntraced %s", traced, untraced)
			}

			var roots []string
			for _, trace := range tr.Snapshot(0) {
				roots = append(roots, trace.Root)
				if trace.Root != "serve.query" {
					continue
				}
				byName := make(map[string][]obs.SpanRecord)
				for _, sp := range trace.Spans {
					byName[sp.Name] = append(byName[sp.Name], sp)
				}
				if len(byName["serve.query"]) != 1 || len(byName[tc.child]) != 1 {
					t.Fatalf("serve.query trace has %d serve.query and %d %s spans, want 1 each",
						len(byName["serve.query"]), len(byName[tc.child]), tc.child)
				}
				if got, want := byName[tc.child][0].ParentID, byName["serve.query"][0].SpanID; got != want {
					t.Errorf("%s parent = %s, want the serve.query span %s", tc.child, got, want)
				}
				if tc.rpc && len(byName["rpc.query"]) == 0 {
					t.Error("serve.query trace holds no rpc.query span")
				}
				return
			}
			t.Fatalf("no trace rooted at serve.query; roots %q", roots)
		})
	}
}

func TestQueryValidation(t *testing.T) {
	trees, ts := testTrees(3, 8, 4)
	svc, srv := testService(t, Config{MaxTrees: 2}, trees, ts)
	registerDistributed(t, svc.cat, "dist", trees, ts)
	q := newickStrings(trees[:1])
	// A tree naming a taxon outside the catalogue, and one covering only
	// five of its eight taxa (local collections answer partial trees; a
	// distributed one requires complete coverage).
	unknown := strings.Replace(q[0], ts.Name(0), "stranger", 1)
	incomplete := fmt.Sprintf("((%s,%s),(%s,%s),%s);", ts.Name(0), ts.Name(1), ts.Name(2), ts.Name(3), ts.Name(4))
	// A valid body to append bytes to; encoding/json's trailing newline
	// and other whitespace stay acceptable.
	validJSON, err := json.Marshal(map[string]any{"collection": "refs", "trees": q})
	if err != nil {
		t.Fatal(err)
	}
	valid := string(validJSON)
	escaped := strings.Replace(valid, `"refs"`, `"r\u0065fs"`, 1)

	cases := []struct {
		name   string
		tenant string
		body   any
		want   int
		reason string // the error body must contain it
	}{
		{"unknown collection", "", map[string]any{"collection": "nope", "trees": q}, 404, ""},
		{"path-escape collection", "", map[string]any{"collection": "../refs", "trees": q}, 400, ""},
		{"empty collection", "", map[string]any{"trees": q}, 400, ""},
		{"bad tenant", "a/b", map[string]any{"collection": "refs", "trees": q}, 400, ""},
		{"long tenant", strings.Repeat("x", 65), map[string]any{"collection": "refs", "trees": q}, 400, ""},
		{"no trees", "", map[string]any{"collection": "refs"}, 400, ""},
		{"too many trees", "", map[string]any{"collection": "refs", "trees": newickStrings(trees[:3])}, 413, ""},
		{"malformed json", "", `{"collection": refs`, 400, ""},
		{"malformed newick", "", map[string]any{"collection": "refs", "trees": []string{"((a,b"}}, 400, ""},
		{"trailing garbage", "", map[string]any{"collection": "refs", "trees": []string{q[0] + "((( garbage"}}, 400, "tree 0:"},
		{"two trees in one string", "", map[string]any{"collection": "refs", "trees": []string{q[0], q[0] + q[0]}}, 400, "tree 1:"},
		{"unknown variant", "", map[string]any{"collection": "refs", "variant": "rooted", "trees": q}, 400, ""},
		{"info variant", "", map[string]any{"collection": "refs", "variant": "info", "trees": q}, 400, ""},
		{"unknown taxon", "", map[string]any{"collection": "refs", "trees": []string{unknown}}, 400, "not in taxon catalogue"},
		{"distributed unknown taxon", "", map[string]any{"collection": "dist", "trees": []string{q[0], unknown}}, 400, "not in taxon catalogue"},
		{"distributed incomplete tree", "", map[string]any{"collection": "dist", "trees": []string{incomplete}}, 400, "complete coverage"},
		{"trailing junk", "", valid + "junk", 400, "trailing data after JSON body"},
		{"trailing brackets", "", valid + "]]]", 400, "trailing data after JSON body"},
		{"second object", "", valid + `{"collection":"other"}`, 400, "trailing data after JSON body"},
		{"escaped body, trailing junk", "", escaped + "junk", 400, "trailing data after JSON body"},
		{"trailing whitespace", "", valid + " \r\n\t\n", 200, `"avg_rf"`},
		{"escaped body", "", escaped + "\n", 200, `"avg_rf"`},
	}
	for _, c := range cases {
		code, body, _ := postQuery(t, srv.URL, c.tenant, c.body)
		if code != c.want || !strings.Contains(string(body), c.reason) {
			t.Errorf("%s: status %d, want %d %q (body %s)", c.name, code, c.want, c.reason, body)
		}
	}

	// GET is not allowed.
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	trees, ts := testTrees(4, 8, 4)
	_, srv := testService(t, Config{MaxBodyBytes: 256}, trees, ts)
	big := map[string]any{"collection": "refs", "trees": []string{strings.Repeat("x", 1024)}}
	code, body, _ := postQuery(t, srv.URL, "", big)
	if code != 413 {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", code, body)
	}
}

func TestQueryDeadline(t *testing.T) {
	trees, ts := testTrees(5, 8, 4)
	_, srv := testService(t, Config{DefaultDeadline: 30 * time.Millisecond}, trees, ts)
	// A backend that never answers within the deadline.
	svcMux := http.NewServeMux()
	cat := NewCatalog("", 0)
	defer cat.Close()
	if err := cat.Register("slow", stallBackend{}); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{DefaultDeadline: 30 * time.Millisecond}, cat)
	svc.Register(svcMux)
	slow := httptest.NewServer(svcMux)
	defer slow.Close()

	code, body, _ := postQuery(t, slow.URL, "", map[string]any{
		"collection": "slow", "trees": newickStrings(trees[:1]),
	})
	if code != 504 {
		t.Fatalf("stalled backend: status %d, want 504 (body %s)", code, body)
	}
	_ = srv
}

// stallBackend blocks until the request context expires.
type stallBackend struct{}

func (stallBackend) Query(ctx context.Context, _ []*tree.Tree, _ core.Variant) (*Answer, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (stallBackend) Stats() CollectionStats { return CollectionStats{Kind: "stall"} }
func (stallBackend) Close()                 {}

func TestCollectionsListAndRegister(t *testing.T) {
	trees, ts := testTrees(6, 12, 8)
	_, srv := testService(t, Config{}, trees, ts)

	resp, err := http.Get(srv.URL + "/v1/collections")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []CollectionStats
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "refs" || list[0].Kind != "local" ||
		list[0].Trees != 8 || list[0].Taxa != 12 || list[0].Epoch != 1 {
		t.Fatalf("list = %+v", list)
	}

	// Register a second store over the admin API.
	more, ts2 := testTrees(7, 10, 6)
	dir := newStore(t, more, ts2)
	body, _ := json.Marshal(map[string]string{"name": "more", "dir": dir})
	resp, err = http.Post(srv.URL+"/v1/collections", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}
	var st CollectionStats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "more" || st.Trees != 6 {
		t.Fatalf("registered stats = %+v", st)
	}

	// Invalid names are rejected at the boundary.
	for _, name := range []string{"../evil", "a/b", "", strings.Repeat("q", 65)} {
		body, _ := json.Marshal(map[string]string{"name": name, "dir": dir})
		resp, err := http.Post(srv.URL+"/v1/collections", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("register %q: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRefreshNeverTearsInflightQueries publishes new epochs while
// queries run and checks every answer is internally consistent with the
// epoch that served it.
func TestRefreshNeverTearsInflightQueries(t *testing.T) {
	trees1, ts := testTrees(8, 14, 10)
	rng := rand.New(rand.NewSource(9))
	trees2 := make([]*tree.Tree, 7)
	for i := range trees2 {
		trees2[i] = simphy.RandomBinary(ts, rng)
	}
	queries := make([]*tree.Tree, 3)
	for i := range queries {
		queries[i] = simphy.RandomBinary(ts, rng)
	}

	dir := newStore(t, trees1, ts)
	st, err := bfhsnap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenLocal(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Expected vectors per epoch.
	want := map[int][]core.Result{}
	for n, set := range map[int][]*tree.Tree{1: trees1, 2: trees2} {
		h := buildHash(t, set, ts)
		res, err := h.AverageRF(collection.FromTrees(queries), core.QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := b.Query(context.Background(), queries, core.Plain)
				if err != nil {
					errc <- err
					return
				}
				exp, ok := want[ans.Epoch]
				if !ok {
					errc <- fmt.Errorf("answer from unexpected epoch %d", ans.Epoch)
					return
				}
				for i, r := range ans.Results {
					if r.AvgRF != exp[i].AvgRF {
						errc <- fmt.Errorf("epoch %d result %d: got %v, want %v (torn read?)",
							ans.Epoch, i, r.AvgRF, exp[i].AvgRF)
						return
					}
				}
			}
		}()
	}
	// Publish epoch 2 and refresh mid-flight.
	if _, err := st.SaveEpoch(buildHash(t, trees2, ts)); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Refresh(); err != nil || n != 2 {
		t.Fatalf("Refresh() = (%d, %v), want (2, nil)", n, err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// After refresh, new queries answer from epoch 2.
	ans, err := b.Query(context.Background(), queries, core.Plain)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Epoch != 2 {
		t.Fatalf("post-refresh epoch = %d, want 2", ans.Epoch)
	}
}

func TestDrainShedsAndHealthzFlips(t *testing.T) {
	trees, ts := testTrees(10, 8, 4)
	svc, srv := testService(t, Config{}, trees, ts)

	// Healthy first.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	if !svc.Drain(time.Second) {
		t.Fatal("Drain timed out with no requests in flight")
	}
	// Draining is idempotent.
	if !svc.Drain(time.Second) {
		t.Fatal("second Drain timed out")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(data), "draining") {
		t.Fatalf("healthz during drain: %d %s", resp.StatusCode, data)
	}

	code, _, hdr := postQuery(t, srv.URL, "", map[string]any{
		"collection": "refs", "trees": newickStrings(trees[:1]),
	})
	if code != 503 {
		t.Fatalf("query during drain: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("drain shed carries no Retry-After")
	}
}

func TestLoadManifest(t *testing.T) {
	trees, ts := testTrees(11, 8, 5)
	dir := newStore(t, trees, ts)
	manifest := t.TempDir() + "/catalog.json"
	data, _ := json.Marshal(Manifest{Collections: []ManifestEntry{{Name: "m1", Dir: dir}}})
	if err := writeFile(manifest, data); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog("", 0)
	defer cat.Close()
	if err := cat.LoadManifest(manifest); err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Get("m1"); !ok {
		t.Fatal("manifest collection not registered")
	}
	// A manifest with an invalid name fails loudly.
	bad, _ := json.Marshal(Manifest{Collections: []ManifestEntry{{Name: "../x", Dir: dir}}})
	if err := writeFile(manifest, bad); err != nil {
		t.Fatal(err)
	}
	cat2 := NewCatalog("", 0)
	defer cat2.Close()
	if err := cat2.LoadManifest(manifest); err == nil {
		t.Fatal("manifest with path-escaping name loaded")
	}
}

// writeFile writes a test fixture.
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
