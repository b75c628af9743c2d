package core

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/tree"
)

func resumeTestTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	srcs := []string{
		"((a,b),(c,d),e);",
		"((a,c),(b,d),e);",
		"((a,d),(b,c),e);",
		"((a,e),(b,c),d);",
	}
	out := make([]*tree.Tree, len(srcs))
	for i, s := range srcs {
		out[i] = newick.MustParse(s)
	}
	return out
}

func buildResumeHash(t *testing.T, workers int) *FreqHash {
	t.Helper()
	src := collection.FromTrees(resumeTestTrees(t))
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(src, ts, BuildOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestFingerprintDeterministic(t *testing.T) {
	fp1 := buildResumeHash(t, 1).Fingerprint()
	fp4 := buildResumeHash(t, 4).Fingerprint()
	if fp1 != fp4 {
		t.Fatalf("fingerprint varies with worker count: %016x vs %016x", fp1, fp4)
	}
	// A different reference set must disagree.
	src := collection.FromTrees(resumeTestTrees(t)[:3])
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Build(src, ts, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Fingerprint() == fp1 {
		t.Fatal("different reference sets share a fingerprint")
	}
}

func TestQuerySkip(t *testing.T) {
	h := buildResumeHash(t, 2)
	q := collection.FromTrees(resumeTestTrees(t))

	full, err := h.AverageRF(q, QueryOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := h.AverageRF(q, QueryOptions{
		Workers: 2,
		Skip:    func(idx int) bool { return idx%2 == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 2 {
		t.Fatalf("got %d results with skip, want 2", len(skipped))
	}
	for _, r := range skipped {
		if r.Index%2 == 0 {
			t.Fatalf("skipped index %d still computed", r.Index)
		}
		if r.AvgRF != full[r.Index].AvgRF {
			t.Fatalf("index %d: skip run %v != full run %v", r.Index, r.AvgRF, full[r.Index].AvgRF)
		}
	}
}

func TestQueryOnResult(t *testing.T) {
	h := buildResumeHash(t, 2)
	var mu sync.Mutex
	seen := map[int]float64{}
	results, err := h.AverageRF(collection.FromTrees(resumeTestTrees(t)), QueryOptions{
		Workers: 3,
		OnResult: func(r Result) {
			mu.Lock()
			seen[r.Index] = r.AvgRF
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(results) {
		t.Fatalf("OnResult saw %d results, returned %d", len(seen), len(results))
	}
	for _, r := range results {
		if seen[r.Index] != r.AvgRF {
			t.Fatalf("OnResult value mismatch at %d", r.Index)
		}
	}
}

func TestQueryCancel(t *testing.T) {
	h := buildResumeHash(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first query is fed
	// In memory the queries are trees; a plain-Newick file hands them out
	// as raw statements.
	for _, src := range []collection.Source{
		collection.FromTrees(resumeTestTrees(t)),
		writeCollection(t, resumeTestTrees(t)),
	} {
		results, err := h.AverageRF(src, QueryOptions{
			Workers: 2,
			Context: ctx,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: got %v, want context.Canceled", src, err)
		}
		if len(results) != 0 {
			t.Fatalf("%T: pre-canceled run computed %d results", src, len(results))
		}
	}
}

// TestBuildCancel: a build whose context has ended reads no tree past
// the stop and reports the context's error.
func TestBuildCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := collection.FromTrees(resumeTestTrees(t))
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(src, ts, BuildOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if h != nil {
		t.Fatal("canceled build returned a hash")
	}
}

func TestQuerySkipRawPath(t *testing.T) {
	// File-backed plain Newick reaches the workers as raw statements.
	dir := t.TempDir()
	path := dir + "/q.nwk"
	content := "((a,b),(c,d),e);\n((a,c),(b,d),e);\n((a,d),(b,c),e);\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	h := buildResumeHash(t, 2)
	full, err := h.AverageRF(src, QueryOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 3 {
		t.Fatalf("raw full run: %d results", len(full))
	}
	part, err := h.AverageRF(src, QueryOptions{
		Workers: 2,
		Skip:    func(idx int) bool { return idx == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 2 || part[0].Index != 0 || part[1].Index != 2 {
		t.Fatalf("raw skip run: %+v", part)
	}
	for _, r := range part {
		if r.AvgRF != full[r.Index].AvgRF {
			t.Fatalf("raw skip mismatch at %d", r.Index)
		}
	}
}
