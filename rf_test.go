package repro

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

var (
	quartetT  = "((A,B),(C,D));"
	quartetT2 = "((D,B),(C,A));"
)

func TestAverageRFNewickPaperExample(t *testing.T) {
	res, err := AverageRFNewick([]string{quartetT}, []string{quartetT2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].AvgRF != 2 {
		t.Errorf("results = %+v, want [{0 2}]", res)
	}
}

func TestAverageRFFiles(t *testing.T) {
	dir := t.TempDir()
	qPath := filepath.Join(dir, "q.nwk")
	rPath := filepath.Join(dir, "r.nwk")
	if err := os.WriteFile(qPath, []byte(quartetT+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs := quartetT + "\n" + quartetT + "\n" + quartetT2 + "\n"
	if err := os.WriteFile(rPath, []byte(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AverageRFFiles(qPath, rPath, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !approxEq(res[0].AvgRF, 2.0/3.0) {
		t.Errorf("results = %+v, want avg 2/3", res)
	}
}

func TestAverageRFFilesMissing(t *testing.T) {
	if _, err := AverageRFFiles("/nope/q.nwk", "/nope/r.nwk", Config{}); err == nil {
		t.Error("missing files should fail")
	}
}

func TestVariants(t *testing.T) {
	q := []string{quartetT}
	r := []string{quartetT2}
	norm, err := AverageRFNewick(q, r, Config{Variant: VariantNormalized})
	if err != nil {
		t.Fatal(err)
	}
	// n=4: max RF = 2(n−3) = 2, so normalized = 1.
	if !approxEq(norm[0].AvgRF, 1) {
		t.Errorf("normalized = %v, want 1", norm[0].AvgRF)
	}
	if _, err := AverageRFNewick(q, r, Config{Variant: "bogus"}); err == nil {
		t.Error("bogus variant should fail")
	}
}

func TestWeightedVariantEndToEnd(t *testing.T) {
	q := []string{"((A:1,C:1):4,(B:1,D:1):4);"}
	r := []string{"((A:1,B:1):2,(C:1,D:1):2);"}
	res, err := AverageRFNewick(q, r, Config{Variant: VariantWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(res[0].AvgRF, 6) {
		t.Errorf("weighted = %v, want 6", res[0].AvgRF)
	}
}

func TestSplitSizeFilter(t *testing.T) {
	// With every split filtered away (min size 4 on 4 taxa is impossible),
	// the distance collapses to 0.
	res, err := AverageRFNewick([]string{quartetT}, []string{quartetT2}, Config{MinSplitSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AvgRF != 0 {
		t.Errorf("filtered avg = %v, want 0", res[0].AvgRF)
	}
}

func TestIntersectTaxa(t *testing.T) {
	// Query covers {A,B,C,D,E}; references cover {A,B,C,D,F}. Intersection
	// is {A,B,C,D} where both agree on AB|CD → distance 0.
	q := []string{"(((A,B),(C,D)),E);"}
	r := []string{"(((A,B),(C,D)),F);"}
	res, err := AverageRFNewick(q, r, Config{IntersectTaxa: true})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AvgRF != 0 {
		t.Errorf("intersect-taxa avg = %v, want 0", res[0].AvgRF)
	}
	// Without IntersectTaxa the same input must fail (taxa mismatch).
	if _, err := AverageRFNewick(q, r, Config{}); err == nil {
		t.Error("mismatched taxa without IntersectTaxa should fail")
	}
}

func TestIntersectTaxaTooFew(t *testing.T) {
	q := []string{"((A,B),(X,Y));"}
	r := []string{"((A,B),(W,Z));"}
	if _, err := AverageRFNewick(q, r, Config{IntersectTaxa: true}); err == nil {
		t.Error("intersection of 2 taxa should fail")
	}
}

func TestBestResult(t *testing.T) {
	res, err := AverageRFNewick(
		[]string{quartetT, quartetT2, "((A,C),(B,D));"},
		[]string{quartetT, quartetT, quartetT2},
		Config{},
	)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if best.Index != 0 {
		t.Errorf("best = %+v; the reference-majority topology should win", best)
	}
	if _, err := BestResult(nil); err == nil {
		t.Error("BestResult of nothing should fail")
	}
}

func TestPairwiseRF(t *testing.T) {
	d, err := PairwiseRF(quartetT, quartetT2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("PairwiseRF = %d, want 2", d)
	}
	if _, err := PairwiseRF("garbage", quartetT); err == nil {
		t.Error("bad newick should fail")
	}
	if _, err := PairwiseRF(quartetT, "((A,B),(C,E));"); err == nil {
		t.Error("mismatched taxa should fail")
	}
}

func TestConsensusNewick(t *testing.T) {
	refs := []string{quartetT, quartetT, quartetT2}
	cons, err := ConsensusNewick(refs, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(cons, ";") {
		t.Errorf("consensus not Newick-terminated: %q", cons)
	}
	// The majority topology is quartetT; consensus must be at distance 0.
	d, err := PairwiseRF(cons, quartetT)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("consensus RF to majority topology = %d, want 0", d)
	}
}

func TestConsensusFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.nwk")
	if err := os.WriteFile(path, []byte(quartetT+"\n"+quartetT+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cons, err := ConsensusFile(path, 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := PairwiseRF(cons, quartetT); d != 0 {
		t.Errorf("consensus = %q, RF = %d", cons, d)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := AverageRFNewick(nil, []string{quartetT}, Config{}); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := AverageRFNewick([]string{quartetT}, nil, Config{}); err == nil {
		t.Error("empty reference should fail")
	}
}

// TestNonFiniteReferenceLengthRejected: a reference edge of length NaN,
// Inf or -Inf fails the run with an error naming the tree, instead of a
// NaN Weighted answer.
func TestNonFiniteReferenceLengthRejected(t *testing.T) {
	queries := []string{"((A:1,B:1):1,C:1,(D:1,E:1):1);"}
	for _, bad := range []string{"NaN", "Inf", "-Inf"} {
		refs := []string{"((A:1,B:1):1,C:1,(D:1,E:1):1);", "((A:1,C:1):" + bad + ",B:1,(D:1,E:1):1);"}
		res, err := AverageRFNewick(queries, refs, Config{Variant: VariantWeighted, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "tree 1:") || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("reference length %s: %v, %v; want an error naming tree 1", bad, res, err)
		}
	}
}
