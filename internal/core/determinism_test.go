package core

import (
	"testing"

	"repro/internal/collection"
	"repro/internal/newick"
)

// TestGreedyConsensusIndependentOfCompression: the greedy consensus (which
// breaks support ties by entry order) must produce the same tree whether
// the hash stores raw (open-addressing) or compressed (succinct) keys.
func TestGreedyConsensusIndependentOfCompression(t *testing.T) {
	for trial := int64(0); trial < 8; trial++ {
		trees, ts := randomCollection(500+trial, 11, 7)
		src := collection.FromTrees(trees)
		plain, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendOpenAddressing})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
		if err != nil {
			t.Fatal(err)
		}
		gp, err := plain.GreedyConsensus(0.01)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := comp.GreedyConsensus(0.01)
		if err != nil {
			t.Fatal(err)
		}
		sp := newick.String(gp, newick.WriteOptions{})
		sc := newick.String(gc, newick.WriteOptions{})
		if sp != sc {
			t.Errorf("trial %d: greedy consensus differs under compression:\n%s\n%s", trial, sp, sc)
		}
	}
}

// TestEntriesOrderIndependentOfCompression: Entries must list identical
// bipartitions in identical order for both backends' key schemes.
func TestEntriesOrderIndependentOfCompression(t *testing.T) {
	trees, ts := randomCollection(77, 13, 9)
	src := collection.FromTrees(trees)
	plain, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendOpenAddressing})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := plain.Entries(0)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := comp.Entries(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep) != len(ec) {
		t.Fatalf("entry counts differ: %d vs %d", len(ep), len(ec))
	}
	for i := range ep {
		if ep[i].Bipartition.Key() != ec[i].Bipartition.Key() || ep[i].Frequency != ec[i].Frequency {
			t.Errorf("entry %d differs: %s/%d vs %s/%d",
				i, ep[i].Bipartition, ep[i].Frequency, ec[i].Bipartition, ec[i].Frequency)
		}
	}
}
