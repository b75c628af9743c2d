package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
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

// TestHashUpdateInputs pins what AddTree and RemoveTree accept and the
// exact error each rejected string gets. Both go from the string straight
// to its splits; syntax errors carry the package's "repro: " prefix and
// catalogue errors the extractor's own wording.
func TestHashUpdateInputs(t *testing.T) {
	const tree = "((A,B),((C,D),(E,F)));"
	cases := []struct {
		name, in, err string
	}{
		{"plain", tree, ""},
		{"surrounding whitespace", "  " + tree + "  ", ""},
		{"leading comment", "[lead]" + tree, ""},
		{"missing semicolon", "((A,B),((C,D),(E,F)))",
			"repro: newick: parse error at line 1 (offset 21): expected ';' after tree, found end of input"},
		{"junk after semicolon", tree + "junk",
			"repro: newick: parse error at line 1 (offset 26): expected ';' after tree, found end of input"},
		{"two statements", tree + tree,
			"repro: newick: parse error at offset 0: unexpected extra tree after ';'"},
		{"double semicolon", tree + ";",
			"repro: newick: parse error at line 1 (offset 22): expected '(' or label, found ';'"},
		{"bare semicolon", ";",
			"repro: newick: parse error at line 1 (offset 0): expected '(' or label, found ';'"},
		{"empty", "",
			"repro: newick: parse error at line 1 (offset 0): expected '(' or label, found end of input"},
		{"unknown taxon", "((A,B),((C,D),(E,Z)));", `bipart: leaf "Z" not in taxon catalogue`},
		{"incomplete", "((A,B),((C,D),E));", `bipart: tree covers 5 of 6 catalogue taxa; complete coverage required (missing "F")`},
		{"duplicate leaf", "((A,B),((C,D),(E,F,F)));", `bipart: duplicate leaf "F"`},
	}
	for _, c := range cases {
		h, err := BuildHashNewick(sixTaxonRefs(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			name  string
			apply func(string) error
			r     int
		}{{"AddTree", h.AddTree, 5}, {"RemoveTree", h.RemoveTree, 4}} {
			err := op.apply(c.in)
			switch {
			case c.err == "" && err != nil:
				t.Errorf("%s: %s(%q) = %v, want success", c.name, op.name, c.in, err)
			case c.err != "" && (err == nil || err.Error() != c.err):
				t.Errorf("%s: %s(%q) = %v, want %q", c.name, op.name, c.in, err, c.err)
			}
			want := op.r
			if c.err != "" {
				want = 4
			}
			if got := h.Stats().NumTrees; got != want {
				t.Errorf("%s: r = %d after %s, want %d", c.name, got, op.name, want)
			}
		}
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

// randomNewicks returns r random binary trees over n taxa, with random
// branch lengths, as Newick strings.
func randomNewicks(seed int64, n, r int) []string {
	ts := taxa.Generate(n)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, r)
	for i := range out {
		tr := simphy.RandomBinary(ts, rng)
		tr.Postorder(func(nd *tree.Node) { nd.Length = rng.Float64() + 0.01 })
		out[i] = newick.String(tr, newick.WriteOptions{BranchLengths: true})
	}
	return out
}

// TestNewickEntryPointsMatchTreePath: the Newick-string entry points go
// from statements straight to splits; their answers must equal the same
// strings parsed into trees and run through the tree path, bit for bit,
// in every variant, with a split-size filter, on a two-word catalogue.
func TestNewickEntryPointsMatchTreePath(t *testing.T) {
	refs := randomNewicks(41, 70, 30)
	queries := append(randomNewicks(42, 70, 10), refs[:5]...)
	parse := func(newicks []string) collection.Source {
		trees := make([]*tree.Tree, len(newicks))
		for i, s := range newicks {
			trees[i] = newick.MustParse(s)
		}
		return collection.FromTrees(trees)
	}
	same := func(what string, got, want []Result) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
				t.Fatalf("%s: query %d = %+v, tree path %+v", what, i, got[i], want[i])
			}
		}
	}
	for _, v := range []string{VariantPlain, VariantNormalized, VariantWeighted, VariantInfo} {
		for _, minSplit := range []int{0, 3} {
			// One worker, so both builds sum branch lengths in one order.
			cfg := Config{Variant: v, MinSplitSize: minSplit, Workers: 1}
			what := fmt.Sprintf("%s min=%d", v, minSplit)

			h, err := BuildHashNewick(refs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.AverageRFNewick(queries)
			if err != nil {
				t.Fatal(err)
			}
			want, err := query(h.h, parse(queries), cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			same("Hash.AverageRFNewick "+what, got, want)

			got, err = AverageRFNewick(queries, refs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err = averageRF(parse(queries), parse(refs), cfg)
			if err != nil {
				t.Fatal(err)
			}
			same("AverageRFNewick "+what, got, want)
		}
	}
}
