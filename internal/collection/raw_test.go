package collection

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/newick"
	"repro/internal/taxa"
)

func openTempNewick(t *testing.T, content string) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.nwk")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

func TestNextRawSplitsStatements(t *testing.T) {
	src := openTempNewick(t, "((A,B),(C,D));\n((A,C),(B,D));\n(A,D,(B,C));\n")
	var stmts []string
	for {
		s, err := src.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, s)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d, want 3", len(stmts))
	}
	// Each statement must itself parse.
	for i, s := range stmts {
		tr, err := newick.Parse(s)
		if err != nil {
			t.Fatalf("statement %d does not parse: %v\n%q", i, err, s)
		}
		if tr.NumLeaves() != 4 {
			t.Errorf("statement %d leaves = %d", i, tr.NumLeaves())
		}
	}
	// Count becomes known after the raw pass too.
	if src.Count() != 3 {
		t.Errorf("Count = %d", src.Count())
	}
}

func TestNextRawRespectsQuotesAndComments(t *testing.T) {
	content := "(('a;b',C),(D,E))[note; with ; semis];\n((X,'it''s'),(Y,Z));\n"
	src := openTempNewick(t, content)
	var stmts []string
	for {
		s, err := src.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, s)
	}
	if len(stmts) != 2 {
		t.Fatalf("statements = %d, want 2: %q", len(stmts), stmts)
	}
	if !strings.Contains(stmts[0], "a;b") {
		t.Error("quoted semicolon split the first statement")
	}
	tr, err := newick.Parse(stmts[1])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range tr.LeafNames() {
		if n == "it's" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped quote mangled: %v", tr.LeafNames())
	}
}

func TestNextRawUnterminated(t *testing.T) {
	src := openTempNewick(t, "((A,B),(C,D));\n((A,C),(B,D))")
	if _, err := src.NextRaw(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.NextRaw(); err == nil || err == io.EOF {
		t.Errorf("unterminated statement should error, got %v", err)
	}
}

func TestNextRawResetInterleave(t *testing.T) {
	src := openTempNewick(t, "(A,B,(C,D));\n(A,C,(B,D));\n")
	if _, err := src.NextRaw(); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	// After Reset the parsed path works from the start.
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("parsed %d after raw+reset, want 2", n)
	}
}

func TestNextRawNexusUnsupported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.nex")
	if err := os.WriteFile(path, []byte(nexusContent), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.NextRaw(); err != ErrRawUnsupported {
		t.Errorf("NEXUS NextRaw = %v, want ErrRawUnsupported", err)
	}
	// The parsed path still works.
	if got := drain(t, src); got != 2 {
		t.Errorf("parsed NEXUS trees = %d", got)
	}
}

func TestHeadCountSemantics(t *testing.T) {
	src := openTempNewick(t, "(A,B,(C,D));\n(A,C,(B,D));\n(A,D,(B,C));\n")
	h := &Head{Src: src, N: 2}
	// Unknown before a pass.
	if c := h.Count(); c != -1 {
		t.Errorf("Head.Count before pass = %d, want -1", c)
	}
	if got := drain(t, h); got != 2 {
		t.Fatalf("Head drained %d", got)
	}
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	// Underlying file hasn't completed a FULL pass (Head stopped early), so
	// its count may stay unknown; Head must report -1 or 2, never more.
	if c := h.Count(); c > 2 {
		t.Errorf("Head.Count = %d, want <= 2", c)
	}
	// A Head over a counted source caps at N.
	sl := FromTrees(mustParseAll(t, "(A,B,C);", "(A,B,C);", "(A,B,C);"))
	h2 := &Head{Src: sl, N: 2}
	if c := h2.Count(); c != 2 {
		t.Errorf("Head over slice Count = %d, want 2", c)
	}
	h3 := &Head{Src: sl, N: 10}
	if c := h3.Count(); c != 3 {
		t.Errorf("oversized Head Count = %d, want 3", c)
	}
}

func TestHeadNextRaw(t *testing.T) {
	src := openTempNewick(t, "(A,B,(C,D));\n(A,C,(B,D));\n(A,D,(B,C));\n")
	h := &Head{Src: src, N: 2}
	n := 0
	for {
		_, err := h.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("Head.NextRaw yielded %d, want 2", n)
	}
	// Over a non-raw source it must decline.
	h2 := &Head{Src: FromTrees(mustParseAll(t, "(A,B,C);")), N: 1}
	if _, err := h2.NextRaw(); err != ErrRawUnsupported {
		t.Errorf("Head over Slice NextRaw = %v, want ErrRawUnsupported", err)
	}
}

// rawTestTrees is a few hundred statements over shifting taxon sets, so a
// raw scan spreads them over several workers.
func rawTestTrees() []string {
	var out []string
	for i := 0; i < 300; i++ {
		out = append(out, fmt.Sprintf("((A,B),(C,'t %d'),(x_%d,D));", i%7, i%5))
	}
	return out
}

// TestRawScanMatchesTreeScan: the names-only scans of raw statements (a
// file, and in-memory Newick text) find the catalogues the tree path
// finds, and leave the sources reset.
func TestRawScanMatchesTreeScan(t *testing.T) {
	stmts := rawTestTrees()
	file := openTempNewick(t, strings.Join(stmts, "\n")+"\n")
	text, err := FromNewick(stmts)
	if err != nil {
		t.Fatal(err)
	}
	trees := FromTrees(mustParseAll(t, stmts...))
	for _, scan := range []func(...Source) (*taxa.Set, error){ScanTaxa, ScanCommonTaxa} {
		want, err := scan(trees)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []Source{file, text} {
			got, err := scan(src)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("raw scan found %v, tree scan %v", got, want)
			}
			if n := drain(t, src); n != len(stmts) {
				t.Errorf("source yields %d trees after the scan, want %d", n, len(stmts))
			}
		}
	}
}

// TestRawScanReportsFirstBadTree: with several malformed statements, the
// parallel raw scan reports the earliest, as a serial scan would.
func TestRawScanReportsFirstBadTree(t *testing.T) {
	stmts := rawTestTrees()
	stmts[150] = "((A,B),(C,D);"
	stmts[220] = "((A,B),(C,:D));"
	text, err := FromNewick(stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, err := ScanTaxa(text)
		var pe *newick.ParseError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "tree 151:") {
			t.Fatalf("scan error = %v, want a ParseError on tree 151", err)
		}
	}
}

// TestFromNewickSplitsLikeAJoinedStream: strings are joined by newlines
// and split at top-level semicolons, so a string may hold several
// statements; trailing text without a ';' is an error.
func TestFromNewickSplitsLikeAJoinedStream(t *testing.T) {
	text, err := FromNewick([]string{"(A,B,(C,D));(A,C,(B,D));", "[comment]", "(A,'x;y',(B,D));"})
	if err != nil {
		t.Fatal(err)
	}
	if text.Count() != 3 {
		t.Fatalf("Count = %d, want 3", text.Count())
	}
	if n := drain(t, text); n != 3 {
		t.Fatalf("drained %d trees, want 3", n)
	}
	for _, bad := range [][]string{{"(A,B,(C,D))"}, {"(A,B,(C,D));", "(A,"}, {"(A,B,(C,D));[open"}} {
		if _, err := FromNewick(bad); err == nil {
			t.Errorf("FromNewick(%q) accepted an unterminated statement", bad)
		}
	}
}

// TestNextRawLongStatements: statements far longer than the reader's
// buffer, with quoted and commented semicolons scattered across chunk
// boundaries, split exactly at their top-level semicolons.
func TestNextRawLongStatements(t *testing.T) {
	var want []string
	for s := 0; s < 5; s++ {
		var b strings.Builder
		b.WriteString("(")
		for i := 0; i < 1500+s*7; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			switch i % 5 {
			case 1:
				fmt.Fprintf(&b, "'l;%d''s'", i)
			case 3:
				fmt.Fprintf(&b, "l%d[c;[n;]]", i)
			default:
				fmt.Fprintf(&b, "l%d", i)
			}
		}
		b.WriteString(");")
		want = append(want, b.String())
	}
	src := openTempNewick(t, strings.Join(want, "\n"))
	for i := 0; ; i++ {
		stmt, err := src.NextRaw()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("%d statements, want %d", i, len(want))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(stmt) != want[i] {
			t.Fatalf("statement %d split wrongly (%d bytes, want %d)", i, len(stmt), len(want[i]))
		}
	}
}

// TestFirstTaxa: the catalogue is the first tree's leaf set, whatever the
// later trees hold, read under ScanTaxa's leaf rules; the source is reset
// afterwards, and an empty source gives an empty catalogue.
func TestFirstTaxa(t *testing.T) {
	stmts := []string{"((B,A),(C,D));", "((A,B),(C,E));", "(A,B,(X,Y));"}
	file := openTempNewick(t, strings.Join(stmts, "\n")+"\n")
	text, err := FromNewick(stmts)
	if err != nil {
		t.Fatal(err)
	}
	trees := FromTrees(mustParseAll(t, stmts...))
	for _, src := range []Source{file, text, trees} {
		ts, err := FirstTaxa(src)
		if err != nil {
			t.Fatalf("%T: %v", src, err)
		}
		if got := strings.Join(ts.Names(), ","); got != "A,B,C,D" {
			t.Errorf("%T: FirstTaxa = %s, want A,B,C,D", src, got)
		}
		if n := drain(t, src); n != len(stmts) {
			t.Errorf("%T: source yields %d trees after FirstTaxa, want %d", src, n, len(stmts))
		}
	}

	for _, c := range []struct{ stmts, want string }{
		{"(A,B,'');(C,D);", "collection: tree 1: newick: parse error at line 1 (offset 7): leaf without a name"},
		{"((A,B),(C,D);", "collection: tree 1: "},
	} {
		text, err := FromNewick([]string{c.stmts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FirstTaxa(text); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("FirstTaxa(%q) error = %v, want prefix %q", c.stmts, err, c.want)
		}
	}

	empty, err := FromNewick(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ts, err := FirstTaxa(empty); err != nil || ts.Len() != 0 {
		t.Errorf("FirstTaxa(empty) = %v, %v; want an empty catalogue", ts, err)
	}
}
