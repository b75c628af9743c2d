package repro

import (
	"compress/gzip"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/tree"
)

// twoPassBuild is the reference build this package made before it took
// the catalogue from the first tree: a full scan for the union of leaf
// names, then the build.
func twoPassBuild(r collection.Source, cfg Config) (*core.FreqHash, error) {
	ts, err := collection.ScanTaxa(r)
	if err != nil {
		return nil, err
	}
	return cfg.build(context.Background(), r, ts)
}

// writeFile writes data to name in dir and returns the path.
func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gzipped(t *testing.T, s string) []byte {
	t.Helper()
	var b strings.Builder
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

// nexusTranslate renders newicks as a NEXUS TREES block whose trees name
// their leaves by TRANSLATE tokens.
func nexusTranslate(t *testing.T, newicks []string) string {
	t.Helper()
	tokens := map[string]string{}
	var b strings.Builder
	b.WriteString("#NEXUS\nBEGIN TREES;\n")
	var body strings.Builder
	for i, s := range newicks {
		tr := newick.MustParse(s)
		for _, nd := range tr.Leaves() {
			tok, ok := tokens[nd.Name]
			if !ok {
				tok = fmt.Sprint(len(tokens) + 1)
				tokens[nd.Name] = tok
			}
			nd.Name = tok
		}
		fmt.Fprintf(&body, "TREE t%d = %s\n", i+1, newick.String(tr, newick.WriteOptions{BranchLengths: true}))
	}
	b.WriteString("TRANSLATE\n")
	first := true
	for name, tok := range tokens {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, "  %s %s", tok, name)
	}
	b.WriteString(";\n")
	b.WriteString(body.String())
	b.WriteString("END;\n")
	return b.String()
}

// sameHashes fails unless two hashes agree bit for bit: fingerprint,
// stats, every stored split's frequency, support and mean length, and
// every query's answer (or error) in all four variants.
func sameHashes(t *testing.T, what string, one, two *core.FreqHash, cfg Config, queries []string) {
	t.Helper()
	if a, b := one.Fingerprint(), two.Fingerprint(); a != b {
		t.Fatalf("%s: fingerprint %016x, two-pass %016x", what, a, b)
	}
	h1, h2 := &Hash{h: one, cfg: cfg}, &Hash{h: two, cfg: cfg}
	if a, b := h1.Stats(), h2.Stats(); a != b {
		t.Fatalf("%s: stats %+v, two-pass %+v", what, a, b)
	}
	s1, err1 := h1.Splits(0)
	s2, err2 := h2.Splits(0)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: Splits(0): %v / two-pass %v", what, err1, err2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("%s: Splits(0) differ from the two-pass build's", what)
	}
	e1, err1 := one.Entries(1)
	e2, err2 := two.Entries(1)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: Entries(1): %v / two-pass %v", what, err1, err2)
	}
	freqs := func(es []core.Entry) map[string]int {
		m := make(map[string]int, len(es))
		for _, e := range es {
			m[fmt.Sprint(e.Bipartition.Mask().Indices())] = e.Frequency
		}
		return m
	}
	if !reflect.DeepEqual(freqs(e1), freqs(e2)) {
		t.Fatalf("%s: split frequencies differ from the two-pass build's", what)
	}
	for _, v := range []string{VariantPlain, VariantNormalized, VariantWeighted, VariantInfo} {
		vcfg := cfg
		vcfg.Variant = v
		answer := func(h *core.FreqHash) ([]Result, error) {
			q, err := collection.FromNewick(queries)
			if err != nil {
				t.Fatal(err)
			}
			return query(h, q, vcfg, RunOptions{})
		}
		r1, err1 := answer(one)
		r2, err2 := answer(two)
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("%s %s: error %v, two-pass %v", what, v, err1, err2)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%s %s: %d results, two-pass %d", what, v, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Index != r2[i].Index || math.Float64bits(r1[i].AvgRF) != math.Float64bits(r2[i].AvgRF) {
				t.Fatalf("%s %s: query %d = %+v, two-pass %+v", what, v, i, r1[i], r2[i])
			}
		}
	}
}

// TestBuildRefsMatchesTwoPass: the one-pass reference build, which takes
// the catalogue from the first tree, builds the hash the two-pass build
// (union scan, then build) does, on every input kind and backend; and
// every reference collection whose trees do not share one leaf set fails
// on both paths, the one-pass error naming the first tree that differs
// and its unknown, missing or duplicate leaf.
func TestBuildRefsMatchesTwoPass(t *testing.T) {
	dir := t.TempDir()
	refs := randomNewicks(61, 40, 50)
	queries := append(randomNewicks(62, 40, 8), refs[:4]...)
	plain := strings.Join(refs, "\n") + "\n"
	big := randomNewicks(63, 2048, 4)
	bigQueries := append(randomNewicks(64, 2048, 2), big[0])
	// Topologies only, so a multi-worker build is deterministic too.
	bare := make([]string, len(refs))
	for i, s := range refs {
		bare[i] = newick.String(newick.MustParse(s), newick.WriteOptions{})
	}

	file := func(name string, data []byte) func() collection.Source {
		path := writeFile(t, dir, name, data)
		return func() collection.Source {
			f, err := collection.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}
	}
	text := func(newicks []string) func() collection.Source {
		return func() collection.Source {
			src, err := collection.FromNewick(newicks)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	// One worker, so both builds sum branch lengths in one order.
	one := Config{Workers: 1}
	cases := []struct {
		name    string
		src     func() collection.Source
		cfg     Config
		queries []string
		// asPlain marks the inputs that hold the plain file's trees, so
		// their hash must have its fingerprint too.
		asPlain bool
	}{
		{"plain file", file("refs.nwk", []byte(plain)), one, queries, true},
		{"gzip file", file("refs.nwk.gz", gzipped(t, plain)), one, queries, true},
		{"NEXUS TRANSLATE file", file("refs.nex", []byte(nexusTranslate(t, refs))), one, queries, true},
		{"FromNewick", text(refs), one, queries, true},
		{"split-size filter", file("filtered.nwk", []byte(plain)), Config{Workers: 1, MinSplitSize: 3, MaxSplitSize: 12}, queries, false},
		{"openaddr", text(refs), Config{Workers: 1, Backend: "openaddr"}, queries, true},
		{"succinct n=2048", text(big), Config{Workers: 1, Backend: "succinct"}, bigQueries, false},
		{"openaddr n=2048", text(big), Config{Workers: 1, Backend: "openaddr"}, bigQueries, false},
		{"topology file, 4 workers", file("bare.nwk", []byte(strings.Join(bare, "\n"))), Config{Workers: 4}, queries, true},
	}
	var plainFP uint64
	for i, c := range cases {
		h1, err := buildRefs(context.Background(), c.src(), c.cfg)
		if err != nil {
			t.Fatalf("%s: one-pass build: %v", c.name, err)
		}
		h2, err := twoPassBuild(c.src(), c.cfg)
		if err != nil {
			t.Fatalf("%s: two-pass build: %v", c.name, err)
		}
		sameHashes(t, c.name, h1, h2, c.cfg, c.queries)
		if i == 0 {
			plainFP = h1.Fingerprint()
		}
		if c.asPlain && h1.Fingerprint() != plainFP {
			t.Errorf("%s: fingerprint %016x, plain file's %016x", c.name, h1.Fingerprint(), plainFP)
		}
	}

	small := randomNewicks(65, 12, 10)
	mutate := func(k int, f func(tr *tree.Tree) string) []string {
		out := append([]string(nil), small...)
		out[k] = f(newick.MustParse(small[k]))
		return out
	}
	body := func(tr *tree.Tree) string {
		return strings.TrimSuffix(newick.String(tr, newick.WriteOptions{BranchLengths: true}), ";")
	}
	extra := func(tr *tree.Tree) string { return "(" + body(tr) + ",zextra);" }
	duplicate := func(tr *tree.Tree) string { return "(" + body(tr) + "," + tr.Leaves()[0].Name + ");" }
	missing := func(tr *tree.Tree) string {
		r, err := tree.Restrict(tr, func(name string) bool { return name != "t0005" })
		if err != nil {
			t.Fatal(err)
		}
		return newick.String(r, newick.WriteOptions{BranchLengths: true})
	}
	bad := []struct {
		name string
		refs []string
		want string // in the one-pass error
	}{
		{"extra taxon in tree 6", mutate(6, extra), `reference tree 6: bipart: leaf "zextra" not in taxon catalogue`},
		{"missing taxon in tree 6", mutate(6, missing), `reference tree 6: bipart: tree covers 11 of 12 catalogue taxa; complete coverage required (missing "t0005")`},
		{"duplicate leaf in tree 6", mutate(6, duplicate), `reference tree 6: bipart: duplicate leaf`},
		{"extra taxon in tree 0", mutate(0, extra), `reference tree 1: bipart: tree covers 12 of 13 catalogue taxa; complete coverage required (missing "zextra")`},
		{"missing taxon in tree 0", mutate(0, missing), `reference tree 1: bipart: leaf "t0005" not in taxon catalogue`},
		{"duplicate leaf in tree 0", mutate(0, duplicate), `reference tree 0: bipart: duplicate leaf`},
	}
	for _, c := range bad {
		srcs := map[string]func() collection.Source{
			"file":       file(strings.ReplaceAll(c.name, " ", "_")+".nwk", []byte(strings.Join(c.refs, "\n"))),
			"FromNewick": text(c.refs),
		}
		for kind, src := range srcs {
			_, err1 := buildRefs(context.Background(), src(), Config{})
			if err1 == nil || !strings.Contains(err1.Error(), c.want) {
				t.Errorf("%s (%s): one-pass error %v, want one containing %q", c.name, kind, err1, c.want)
			}
			if _, err2 := twoPassBuild(src(), Config{}); err2 == nil {
				t.Errorf("%s (%s): two-pass build accepted it", c.name, kind)
			}
		}
	}
}

// countingRaw counts the NextRaw calls of a raw source that return a
// statement.
type countingRaw struct {
	collection.RawSource
	stmts int
}

func (c *countingRaw) NextRaw() (string, error) {
	s, err := c.RawSource.NextRaw()
	if err == nil {
		c.stmts++
	}
	return s, err
}

// TestReferenceStatementsReadOnce: building over r reference statements
// reads each once, plus the first again for the catalogue — r+1 reads,
// where a union scan before the build made 2r.
func TestReferenceStatementsReadOnce(t *testing.T) {
	const r = 50
	refs := randomNewicks(71, 20, r)
	counted := func() *countingRaw {
		src, err := collection.FromNewick(refs)
		if err != nil {
			t.Fatal(err)
		}
		return &countingRaw{RawSource: src}
	}

	src := counted()
	if _, err := buildHash(src, Config{}); err != nil {
		t.Fatal(err)
	}
	if src.stmts > r+1 {
		t.Errorf("BuildHashNewick path read %d statements of %d references, want at most %d", src.stmts, r, r+1)
	}

	src = counted()
	q, err := collection.FromNewick(refs[:5])
	if err != nil {
		t.Fatal(err)
	}
	res, err := averageRF(q, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results, want 5", len(res))
	}
	if src.stmts > r+1 {
		t.Errorf("AverageRFNewick path read %d statements of %d references, want at most %d", src.stmts, r, r+1)
	}
}

// TestBadTreeReportedOnce: lenient ingest reports each skipped statement
// once, however many passes read its file — the one-pass build, the
// query pass, and the intersection scan that reads both files first.
func TestBadTreeReportedOnce(t *testing.T) {
	dir := t.TempDir()
	good := sixTaxonRefs()
	// Bad statements are the 1st and the 4th of six.
	content := "((A,B),((C,D),(E,,F)));\n" + good[0] + "\n" + good[1] + "\n" +
		"((A,B),(C,D);\n" + good[2] + "\n" + good[3] + "\n"
	refPath := writeFile(t, dir, "refs.nwk", []byte(content))
	qPath := writeFile(t, dir, "q.nwk", []byte(content))

	var bad []BadTree
	cfg := Config{SkipBadTrees: true, OnBadTree: func(b BadTree) { bad = append(bad, b) }}
	icfg := cfg
	icfg.IntersectTaxa = true
	runs := []struct {
		name  string
		run   func() error
		files []string
	}{
		{"BuildHashFile", func() error { _, err := BuildHashFile(refPath, cfg); return err }, []string{refPath}},
		{"AverageRFFiles", func() error { _, err := AverageRFFiles(qPath, refPath, cfg); return err }, []string{qPath, refPath}},
		{"AverageRFFiles IntersectTaxa", func() error { _, err := AverageRFFiles(qPath, refPath, icfg); return err }, []string{qPath, refPath}},
	}
	for _, run := range runs {
		bad = nil
		if err := run.run(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		got := map[string]int{}
		for _, b := range bad {
			got[fmt.Sprintf("%s#%d", b.Path, b.Tree)]++
		}
		want := map[string]int{}
		for _, f := range run.files {
			want[f+"#1"], want[f+"#4"] = 1, 1
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bad trees reported %v, want each of %v once", run.name, got, want)
		}
	}
}

// TestEmptyQueryIsError: a query collection with no tree is an error, as
// an empty reference collection is, not a run with no results.
func TestEmptyQueryIsError(t *testing.T) {
	refPath, _ := writeRefs(t)
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty":               "",
		"whitespace comments": "  \n[no trees here]\n\t[nor here]\n",
	} {
		qPath := writeFile(t, dir, strings.ReplaceAll(name, " ", "_")+".nwk", []byte(content))
		if res, err := AverageRFFiles(qPath, refPath, Config{}); err == nil {
			t.Errorf("%s query file: %d results and no error, want an error", name, len(res))
		}
	}
}
