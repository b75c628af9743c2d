package collection

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/newick"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func drainLeaves(t *testing.T, src Source) []int {
	t.Helper()
	var leaves []int
	for {
		tr, err := src.Next()
		if err == io.EOF {
			return leaves
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		leaves = append(leaves, tr.NumLeaves())
	}
}

func TestLenientSkipsMalformedNewick(t *testing.T) {
	path := writeTemp(t, "mixed.nwk", "(a,b);\n(a,,b);\n(c,(d,e));\n")
	var streamed []Diag
	f, err := OpenFileOpts(path, Options{Lenient: true, OnDiag: func(d Diag) { streamed = append(streamed, d) }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := drainLeaves(t, f); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("lenient read got leaf counts %v, want [2 3]", got)
	}
	diags := f.Diags()
	if len(diags) != 1 || len(streamed) != 1 {
		t.Fatalf("diags = %v, streamed = %v, want one each", diags, streamed)
	}
	d := diags[0]
	if d.Tree != 2 || d.Line != 2 || d.Path != path || d.Limit {
		t.Fatalf("diag = %+v", d)
	}
	// A second pass reproduces the same skips.
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := drainLeaves(t, f); len(got) != 2 {
		t.Fatalf("second pass got %v", got)
	}
	if f.Skipped() != 1 {
		t.Fatalf("second pass skipped %d", f.Skipped())
	}
}

func TestStrictStillFails(t *testing.T) {
	path := writeTemp(t, "bad.nwk", "(a,b);\n(a,,b);\n")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Next()
	if _, err := f.Next(); err == nil {
		t.Fatal("strict mode parsed malformed tree")
	}
}

func TestLenientSkipsOverLimitTrees(t *testing.T) {
	path := writeTemp(t, "big.nwk", "(a,b);\n(a,(b,(c,(d,(e,f)))));\n(c,d);\n")
	f, err := OpenFileOpts(path, Options{Lenient: true, Limits: newick.Limits{MaxTaxa: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := drainLeaves(t, f); len(got) != 2 {
		t.Fatalf("got %v trees", got)
	}
	if d := f.Diags(); len(d) != 1 || !d[0].Limit {
		t.Fatalf("diags = %v", f.Diags())
	}
}

// TestLenientResyncsAtStatementBoundaries pins the resync rule: a bad
// tree costs exactly its own statement, up to its top-level ';'. The
// text after a misplaced ';' is a statement of its own, so "(a,b;c);"
// is two bad trees, not one.
func TestLenientResyncsAtStatementBoundaries(t *testing.T) {
	path := writeTemp(t, "semi.nwk", "(a,b;c);(d,e);\n")
	f, err := OpenFileOpts(path, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := drainLeaves(t, f); len(got) != 1 || got[0] != 2 {
		t.Fatalf("lenient read got leaf counts %v, want [2]", got)
	}
	if d := f.Diags(); len(d) != 2 || d[0].Tree != 1 || d[1].Tree != 2 {
		t.Fatalf("diags = %v, want trees 1 and 2", d)
	}
}

// TestLenientOverByteLimitKeepsLaterTrees: skipping an oversized tree
// leaves the trees after it under their own byte windows.
func TestLenientOverByteLimitKeepsLaterTrees(t *testing.T) {
	path := writeTemp(t, "long.nwk", "(a,b);\n("+strings.Repeat("x,", 50)+"y);\n(c,d);\n(e,(f,g));\n")
	f, err := OpenFileOpts(path, Options{Lenient: true, Limits: newick.Limits{MaxTreeBytes: 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := drainLeaves(t, f); len(got) != 3 || got[2] != 3 {
		t.Fatalf("lenient read got leaf counts %v, want [2 2 3]", got)
	}
	if d := f.Diags(); len(d) != 1 || !d[0].Limit || d[0].Tree != 2 || d[0].Line != 2 {
		t.Fatalf("diags = %v, want one over-limit tree 2 on line 2", d)
	}
}

func TestLenientNexus(t *testing.T) {
	src := "#NEXUS\nBEGIN TREES;\nTREE a = (a,(b,c));\nTREE bad = (a,,b);\nTREE b = ((a,b),(c,d));\nEND;\n"
	path := writeTemp(t, "mixed.nex", src)
	f, err := OpenFileOpts(path, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := drainLeaves(t, f); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("lenient NEXUS got %v", got)
	}
	if len(f.Diags()) != 1 {
		t.Fatalf("diags = %v", f.Diags())
	}
}

func TestInputByteBudget(t *testing.T) {
	path := writeTemp(t, "many.nwk", "(a,b);\n(c,d);\n(e,f);\n(g,h);\n")
	f, err := OpenFileOpts(path, Options{MaxInputBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lastErr error
	for {
		_, err := f.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrInputBudget) {
		t.Fatalf("budget overrun gave %v, want ErrInputBudget", lastErr)
	}
	// Budget exhaustion is fatal even in lenient mode.
	f2, err := OpenFileOpts(path, Options{Lenient: true, MaxInputBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	lastErr = nil
	for {
		_, err := f2.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrInputBudget) {
		t.Fatalf("lenient budget overrun gave %v", lastErr)
	}
}

func TestOptionsDisableRawPath(t *testing.T) {
	path := writeTemp(t, "raw.nwk", "(a,b);\n(c,d);\n")
	f, err := OpenFileOpts(path, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.NextRaw(); err != ErrRawUnsupported {
		t.Fatalf("NextRaw under options gave %v, want ErrRawUnsupported", err)
	}
	// Without options the raw path still works.
	f2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if stmt, err := f2.NextRaw(); err != nil || stmt == "" {
		t.Fatalf("plain NextRaw: %q, %v", stmt, err)
	}
}

func TestInjectedOpenAndReadFaults(t *testing.T) {
	defer faultinject.Disarm()
	path := writeTemp(t, "ok.nwk", "(a,b);\n(c,d);\n")

	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointIOOpen, Kind: faultinject.KindError, Hit: 1,
	})
	if _, err := OpenFile(path); err == nil {
		t.Fatal("injected open fault not surfaced")
	}
	faultinject.Disarm()

	// A mid-stream read error is fatal even in lenient mode (it is not
	// per-tree damage). Arm after Reset so the format sniff (which
	// tolerates read errors) does not absorb the fault.
	f, err := OpenFileOpts(path, Options{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointIORead, Kind: faultinject.KindError, Hit: 1, Times: -1,
	})
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, err := f.Next(); err != nil {
			lastErr = err
			break
		}
	}
	var ie *faultinject.Error
	if !errors.As(lastErr, &ie) {
		t.Fatalf("injected read fault gave %v", lastErr)
	}
}

// TestLenientReportsEachSkipOnce: every pass skips the same statements
// and keeps its own Diags, but OnDiag and the skip counter see each
// skipped statement once, on the first pass that reaches it.
func TestLenientReportsEachSkipOnce(t *testing.T) {
	path := writeTemp(t, "mixed.nwk", "(a,,b);\n(a,b);\n(c,(d,e));\n(x,;\n(f,g);\n")
	var streamed []int
	f, err := OpenFileOpts(path, Options{Lenient: true, OnDiag: func(d Diag) { streamed = append(streamed, d.Tree) }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	skipped0 := mSkipped.Value()
	// A partial pass reaches only the first bad statement.
	if _, err := f.Next(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		if err := f.Reset(); err != nil {
			t.Fatal(err)
		}
		if got := drainLeaves(t, f); len(got) != 3 {
			t.Fatalf("pass %d read %v, want 3 trees", pass, got)
		}
		if f.Skipped() != 2 {
			t.Fatalf("pass %d kept %d diags, want 2", pass, f.Skipped())
		}
	}
	if len(streamed) != 2 || streamed[0] != 1 || streamed[1] != 4 {
		t.Errorf("OnDiag saw trees %v, want [1 4] once each", streamed)
	}
	if d := mSkipped.Value() - skipped0; d != 2 {
		t.Errorf("skip counter moved by %v, want 2", d)
	}
}
