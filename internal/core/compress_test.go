package core

import (
	"testing"

	"repro/internal/collection"
)

// TestCompressedHashAgrees checks §IX key compression — the succinct
// backend: the compressed hash must produce bit-identical distances and
// entries while storing the same number of (smaller) keys.
func TestCompressedHashAgrees(t *testing.T) {
	trees, ts := randomCollection(91, 40, 60)
	src := collection.FromTrees(trees)

	plain, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendOpenAddressing})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Backend() != BackendSuccinct || plain.Backend() != BackendOpenAddressing {
		t.Fatalf("backends %v/%v, want openaddr/succinct", plain.Backend(), comp.Backend())
	}
	if plain.UniqueBipartitions() != comp.UniqueBipartitions() {
		t.Fatalf("unique counts differ: %d vs %d",
			plain.UniqueBipartitions(), comp.UniqueBipartitions())
	}
	if plain.TotalBipartitions() != comp.TotalBipartitions() {
		t.Fatal("total counts differ")
	}

	rp, err := plain.AverageRF(src, QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := comp.AverageRF(src, QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rp {
		if rp[i].AvgRF != rc[i].AvgRF {
			t.Errorf("tree %d: plain %v vs compressed %v", i, rp[i].AvgRF, rc[i].AvgRF)
		}
	}

	// Entries must reconstruct identical bipartitions.
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
	// Order may differ at equal frequency (keys sort differently); compare
	// as sets of (mask, freq).
	want := map[string]int{}
	for _, e := range ep {
		want[e.Bipartition.Key()] = e.Frequency
	}
	for _, e := range ec {
		if want[e.Bipartition.Key()] != e.Frequency {
			t.Errorf("entry mismatch for %s: %d", e.Bipartition, e.Frequency)
		}
	}
}

// TestCompressedHashSmallerKeys verifies the memory motivation: summed key
// bytes must shrink for concentrated collections over many taxa.
func TestCompressedHashSmallerKeys(t *testing.T) {
	trees, ts := randomCollection(17, 200, 30)
	src := collection.FromTrees(trees)
	// The §IX comparison: the open-addressing backend's fixed-width raw
	// words against the succinct backend's encoded keys.
	plain, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendOpenAddressing})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	pb, cb := keyBytes(plain), keyBytes(comp)
	if cb >= pb {
		t.Errorf("compressed keys use %d bytes vs plain %d; expected a reduction", cb, pb)
	}
	t.Logf("key bytes: plain=%d compressed=%d (%.1f%%)", pb, cb, 100*float64(cb)/float64(pb))
}

func keyBytes(h *FreqHash) int {
	total := 0
	for _, n := range h.KeySizes() {
		total += n
	}
	return total
}

func TestCompressedConsensus(t *testing.T) {
	trees, ts := randomCollection(23, 12, 9)
	src := collection.FromTrees(trees)
	plain, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendOpenAddressing})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Build(src, ts, BuildOptions{RequireComplete: true, Backend: BackendSuccinct})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := plain.Consensus(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := comp.Consensus(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumInternalEdges() != cc.NumInternalEdges() {
		t.Errorf("consensus differs under compression: %d vs %d edges",
			cp.NumInternalEdges(), cc.NumInternalEdges())
	}
}
