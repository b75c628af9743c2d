package repro

import (
	"testing"
)

func sixTaxonRefs() []string {
	return []string{
		"((A,B),((C,D),(E,F)));",
		"((A,B),((C,D),(E,F)));",
		"(((A,B),(C,D)),(E,F));",
		"((A,C),((B,D),(E,F)));",
	}
}

func TestBuildHashAndQuery(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.NumTrees != 4 || st.NumTaxa != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueBipartitions == 0 || st.TotalBipartitions != 12 {
		t.Errorf("bipartition counts = %+v (12 = 4 trees × 3 splits)", st)
	}
	// Repeated queries against one hash.
	v1, err := h.AverageRFOne("((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := h.AverageRFOne("((A,F),((B,E),(C,D)));")
	if err != nil {
		t.Fatal(err)
	}
	if v1 >= v2 {
		t.Errorf("majority topology (%v) should be closer than a wrong one (%v)", v1, v2)
	}
	// Must match the one-shot API.
	oneShot, err := AverageRFNewick([]string{"((A,B),((C,D),(E,F)));"}, sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if oneShot[0].AvgRF != v1 {
		t.Errorf("hash query %v vs one-shot %v", v1, oneShot[0].AvgRF)
	}
}

func TestHashConsensusMethods(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	maj, err := h.Consensus(0.5)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := h.GreedyConsensus(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Majority topology dominates 3 of 4 trees; both consensus flavours
	// must match it.
	for _, cons := range []string{maj, greedy} {
		d, err := PairwiseRF(cons, "((A,B),((C,D),(E,F)));")
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("consensus %q at RF %d from the majority topology", cons, d)
		}
	}
}

func TestHashIncrementalUpdates(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := h.AverageRFOne("((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	extra := "((A,F),((B,E),(C,D)));"
	if err := h.AddTree(extra); err != nil {
		t.Fatal(err)
	}
	if h.Stats().NumTrees != 5 {
		t.Fatalf("r = %d after AddTree", h.Stats().NumTrees)
	}
	during, err := h.AverageRFOne("((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	if during <= before {
		t.Errorf("adding a distant tree should raise the average: %v -> %v", before, during)
	}
	if err := h.RemoveTree(extra); err != nil {
		t.Fatal(err)
	}
	after, err := h.AverageRFOne("((A,B),((C,D),(E,F)));")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("remove did not restore the hash: %v vs %v", after, before)
	}
	if err := h.AddTree("((A,B),(C"); err == nil {
		t.Error("malformed Newick should fail")
	}
}

func TestHashSplits(t *testing.T) {
	h, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	splits, err := h.Splits(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) == 0 {
		t.Fatal("no majority splits found")
	}
	for i := 1; i < len(splits); i++ {
		if splits[i].Support > splits[i-1].Support {
			t.Error("splits not sorted by support")
		}
	}
	for _, s := range splits {
		if s.Support <= 0.5 {
			t.Errorf("split below threshold: %+v", s)
		}
		if len(s.Taxa) == 0 {
			t.Error("split without taxa")
		}
	}
}

func TestHashCompressedAgrees(t *testing.T) {
	plain, err := BuildHashNewick(sixTaxonRefs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildHashNewick(sixTaxonRefs(), Config{Backend: "succinct"})
	if err != nil {
		t.Fatal(err)
	}
	q := "((A,C),((B,D),(E,F)));"
	a, err := plain.AverageRFOne(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comp.AverageRFOne(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("compressed hash disagrees: %v vs %v", a, b)
	}
}

func TestInfoVariantPublic(t *testing.T) {
	res, err := AverageRFNewick(
		[]string{"((A,B),((C,D),(E,F)));"},
		sixTaxonRefs(),
		Config{Variant: VariantInfo},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AvgRF < 0 {
		t.Errorf("info distance negative: %v", res[0].AvgRF)
	}
	// The majority topology must still score better than a wrong one.
	wrong, err := AverageRFNewick(
		[]string{"((A,F),((B,E),(C,D)));"},
		sixTaxonRefs(),
		Config{Variant: VariantInfo},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].AvgRF >= wrong[0].AvgRF {
		t.Errorf("info variant ranking wrong: %v vs %v", res[0].AvgRF, wrong[0].AvgRF)
	}
}

func TestGreedyConsensusPublicFunctions(t *testing.T) {
	out, err := GreedyConsensusNewick(sixTaxonRefs(), 0.05, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := PairwiseRF(out, "((A,B),((C,D),(E,F)));"); err != nil || d != 0 {
		t.Errorf("greedy consensus = %q (d=%d, err=%v)", out, d, err)
	}
}
