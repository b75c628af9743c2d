package core

import (
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/tree"
)

// TestAddTreeMatchesRebuild: incrementally grown hashes must be
// indistinguishable from hashes built from scratch.
func TestAddTreeMatchesRebuild(t *testing.T) {
	trees, ts := randomCollection(121, 14, 30)
	grown := buildHash(t, trees[:10], ts)
	for _, tr := range trees[10:] {
		if err := grown.AddTree(tr, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	full := buildHash(t, trees, ts)

	if grown.NumTrees() != full.NumTrees() {
		t.Fatalf("r = %d vs %d", grown.NumTrees(), full.NumTrees())
	}
	if grown.UniqueBipartitions() != full.UniqueBipartitions() {
		t.Fatalf("unique = %d vs %d", grown.UniqueBipartitions(), full.UniqueBipartitions())
	}
	if grown.TotalBipartitions() != full.TotalBipartitions() {
		t.Fatalf("sum = %d vs %d", grown.TotalBipartitions(), full.TotalBipartitions())
	}
	src := collection.FromTrees(trees)
	rg, err := grown.AverageRF(src, QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.AverageRF(src, QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rg {
		if rg[i].AvgRF != rf[i].AvgRF {
			t.Errorf("tree %d: grown %v vs rebuilt %v", i, rg[i].AvgRF, rf[i].AvgRF)
		}
	}
}

// TestRemoveTreeInverse: add then remove restores the original hash.
func TestRemoveTreeInverse(t *testing.T) {
	trees, ts := randomCollection(7, 12, 12)
	h := buildHash(t, trees[:10], ts)
	beforeUnique := h.UniqueBipartitions()
	beforeSum := h.TotalBipartitions()
	beforeR := h.NumTrees()

	if err := h.AddTree(trees[10], nil, true); err != nil {
		t.Fatal(err)
	}
	if err := h.AddTree(trees[11], nil, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveTree(trees[11], nil, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveTree(trees[10], nil, true); err != nil {
		t.Fatal(err)
	}
	if h.UniqueBipartitions() != beforeUnique || h.TotalBipartitions() != beforeSum || h.NumTrees() != beforeR {
		t.Errorf("hash not restored: unique %d→%d, sum %d→%d, r %d→%d",
			beforeUnique, h.UniqueBipartitions(), beforeSum, h.TotalBipartitions(), beforeR, h.NumTrees())
	}
	// Distances equal a from-scratch hash of the first 10 trees.
	base := buildHash(t, trees[:10], ts)
	got, err := h.AverageRFOne(trees[0], QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.AverageRFOne(trees[0], QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("after add/remove cycle: %v, fresh: %v", got, want)
	}
}

func TestRemoveTreeDetectsForeignTree(t *testing.T) {
	refs := []string{"((A,B),(C,D));", "((A,B),(C,D));"}
	h := buildHash(t, parseTrees(refs), abcd)
	foreign := newick.MustParse("((A,C),(B,D));")
	if err := h.RemoveTree(foreign, nil, true); err == nil {
		t.Error("removing a tree that was never added must fail")
	}
	// The failed removal must not have mutated the hash.
	if h.NumTrees() != 2 || h.TotalBipartitions() != 2 {
		t.Errorf("hash mutated by failed removal: r=%d sum=%d", h.NumTrees(), h.TotalBipartitions())
	}
}

func TestRemoveTreeEmptyHash(t *testing.T) {
	h := buildHash(t, parseTrees([]string{"((A,B),(C,D));"}), abcd)
	if err := h.RemoveTree(newick.MustParse("((A,B),(C,D));"), nil, true); err != nil {
		t.Fatal(err)
	}
	if h.NumTrees() != 0 {
		t.Fatalf("r = %d", h.NumTrees())
	}
	if err := h.RemoveTree(newick.MustParse("((A,B),(C,D));"), nil, true); err == nil {
		t.Error("removing from an empty hash must fail")
	}
}

func TestAddTreeUnweightedFlips(t *testing.T) {
	h := buildHash(t, parseTrees([]string{"((A:1,B:1):1,(C:1,D:1):1);"}), abcd)
	if !h.Weighted() {
		t.Fatal("weighted hash expected")
	}
	if err := h.AddTree(newick.MustParse("((A,C),(B,D));"), nil, true); err != nil {
		t.Fatal(err)
	}
	if h.Weighted() {
		t.Error("adding an unweighted tree must clear the weighted flag")
	}
}

// parseTrees is a small helper for literal collections.
func parseTrees(newicks []string) []*tree.Tree {
	out := make([]*tree.Tree, len(newicks))
	for i, s := range newicks {
		out[i] = newick.MustParse(s)
	}
	return out
}

// TestBuildSplitsMatchesBuild: a hash built (and grown) from pre-extracted
// split sets — a distributed shard's path — is indistinguishable from one
// built from the trees, on both engines.
func TestBuildSplitsMatchesBuild(t *testing.T) {
	trees, ts := randomCollection(131, 70, 40)
	for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		opts := BuildOptions{RequireComplete: true, Backend: b}
		full, err := Build(collection.FromTrees(trees), ts, opts)
		if err != nil {
			t.Fatal(err)
		}
		ex := bipart.NewExtractor(ts)
		sets := make([][]bipart.Bipartition, 25)
		for i := range sets {
			sets[i] = ex.MustExtract(trees[i])
		}
		h, err := BuildSplits(sets, ts, BuildOptions{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trees[25:] {
			h.AddSplits(ex.MustExtract(tr))
		}
		if h.Backend() != full.Backend() || h.Fingerprint() != full.Fingerprint() {
			t.Fatalf("%s: backend %s fingerprint %x, built %s %x", b, h.Backend(), h.Fingerprint(), full.Backend(), full.Fingerprint())
		}
		src := collection.FromTrees(trees)
		got, err := h.AverageRF(src, QueryOptions{RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.AverageRF(src, QueryOptions{RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s query %d: %v, built %v", b, i, got[i], want[i])
			}
		}
	}
	if _, err := BuildSplits(nil, ts, BuildOptions{}); err == nil {
		t.Error("an empty split collection built a hash")
	}
}
