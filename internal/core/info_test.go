package core

import (
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/taxa"
	"repro/internal/tree"
)

func TestSplitInformationValues(t *testing.T) {
	// n=6: total unrooted binary trees (2·6−5)!! = 7!! = 105.
	// A 2|4 split is in (2·2−3)!!·(2·4−3)!! = 1·15 = 15 of them:
	// h = log2(105/15) = log2 7.
	got := SplitInformation(6, 2)
	want := math.Log2(7)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("h(6,2) = %v, want log2 7 = %v", got, want)
	}
	// A 3|3 split: (2·3−3)!!² = 9 trees contain it: h = log2(105/9).
	got = SplitInformation(6, 3)
	want = math.Log2(105.0 / 9.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("h(6,3) = %v, want %v", got, want)
	}
	// Balanced splits are rarer, hence more informative.
	if SplitInformation(20, 10) <= SplitInformation(20, 2) {
		t.Error("balanced split should carry more information than a shallow one")
	}
	// Trivial splits carry none.
	if SplitInformation(10, 1) != 0 || SplitInformation(10, 9) != 0 {
		t.Error("trivial splits must have zero information")
	}
}

func TestInfoRFAgainstDirectComputation(t *testing.T) {
	// One reference tree: icRF must equal the direct sum of h over the
	// symmetric difference — on both storage engines, with identical
	// answers (the information mass is summed over whichever table is
	// active).
	ts := taxaSix()
	ref := newick.MustParse("((A,B),((C,D),(E,F)));")
	qt := newick.MustParse("((A,C),((B,D),(E,F)));")
	// Shared: EF|rest (h(6,2)). Unshared: ref has AB|.. and CD|..;
	// query has AC|.. and BD|.. → 4 unshared splits, each a 2|4 split.
	want := 4 * SplitInformation(6, 2)
	var answers []float64
	for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		h, err := Build(collection.FromTrees([]*tree.Tree{ref}), ts, BuildOptions{RequireComplete: true, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.AverageRFOne(qt, QueryOptions{RequireComplete: true, Variant: Info})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: icRF = %v, want 4·h(6,2) = %v", b, got, want)
		}
		answers = append(answers, got)
		// Identical tree → 0.
		same, err := h.AverageRFOne(ref.Clone(), QueryOptions{RequireComplete: true, Variant: Info})
		if err != nil {
			t.Fatal(err)
		}
		if same != 0 {
			t.Errorf("%v: icRF(self) = %v, want 0", b, same)
		}
	}
	if answers[0] != answers[1] {
		t.Errorf("openaddr %v vs succinct %v", answers[0], answers[1])
	}
}

// failingSource yields its trees, then fails at position failAt.
type failingSource struct {
	trees  []*tree.Tree
	failAt int
	pos    int
}

func (s *failingSource) Reset() error { s.pos = 0; return nil }

func (s *failingSource) Next() (*tree.Tree, error) {
	if s.pos == s.failAt {
		return nil, errors.New("disk on fire")
	}
	if s.pos >= len(s.trees) {
		return nil, io.EOF
	}
	s.pos++
	return s.trees[s.pos-1], nil
}

// TestInfoVariantSurfacesReadErrors: a query source failing mid-stream
// is an error for the Info variant exactly as for Plain — never a short
// result list with a nil error.
func TestInfoVariantSurfacesReadErrors(t *testing.T) {
	trees, ts := randomCollection(8, 10, 6)
	h := buildHash(t, trees, ts)
	for _, v := range []Variant{Plain, Info} {
		res, err := h.AverageRF(&failingSource{trees: trees, failAt: 1}, QueryOptions{RequireComplete: true, Variant: v})
		if err == nil {
			t.Errorf("%v: %d results and no error from a source failing on tree 2", v, len(res))
		}
	}
}

func taxaSix() *taxa.Set { return taxa.MustNewSet([]string{"A", "B", "C", "D", "E", "F"}) }

func TestInfoRFAverage(t *testing.T) {
	trees, ts := randomCollection(55, 12, 20)
	h := buildHash(t, trees, ts)
	res, err := h.AverageRF(collection.FromTrees(trees), QueryOptions{RequireComplete: true, Variant: Info})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("results = %d", len(res))
	}
	// Cross-check tree 0 against the definitional mean over single-ref
	// hashes.
	direct := 0.0
	for _, ref := range trees {
		h1 := buildHash(t, []*tree.Tree{ref}, ts)
		v, err := h1.AverageRFOne(trees[0], QueryOptions{RequireComplete: true, Variant: Info})
		if err != nil {
			t.Fatal(err)
		}
		direct += v
	}
	direct /= float64(len(trees))
	if math.Abs(res[0].AvgRF-direct) > 1e-9 {
		t.Errorf("avg icRF = %v, direct mean = %v", res[0].AvgRF, direct)
	}
}

func TestInfoRFNonNegativeAndMonotone(t *testing.T) {
	trees, ts := randomCollection(66, 15, 10)
	h := buildHash(t, trees, ts)
	for i, tr := range trees {
		v, err := h.AverageRFOne(tr, QueryOptions{RequireComplete: true, Variant: Info})
		if err != nil {
			t.Fatal(err)
		}
		if v < -1e-9 {
			t.Errorf("tree %d: negative information distance %v", i, v)
		}
	}
}

func TestInfoRFAfterUpdateInvalidation(t *testing.T) {
	// The cached information mass must be recomputed after AddTree.
	trees, ts := randomCollection(3, 10, 5)
	h := buildHash(t, trees[:4], ts)
	before, err := h.AverageRFOne(trees[0], QueryOptions{RequireComplete: true, Variant: Info})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.AddTree(trees[4], nil, true); err != nil {
		t.Fatal(err)
	}
	after, err := h.AverageRFOne(trees[0], QueryOptions{RequireComplete: true, Variant: Info})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild from scratch over all 5 — must equal the updated hash.
	h5 := buildHash(t, trees, ts)
	want, err := h5.AverageRFOne(trees[0], QueryOptions{RequireComplete: true, Variant: Info})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-want) > 1e-9 {
		t.Errorf("after AddTree: %v, rebuilt: %v (before: %v)", after, want, before)
	}
}
