package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bipart"
	"repro/internal/bitset"
	"repro/internal/collection"
	"repro/internal/newick"
	"repro/internal/taxa"
)

// bipartFromWords builds a canonical bipartition directly from mask words
// — the raw-material constructor of the fingerprint tests and fuzzer.
func bipartFromWords(words []uint64, width int) (bipart.Bipartition, error) {
	m, err := bitset.FromWords(words, width)
	if err != nil {
		return bipart.Bipartition{}, err
	}
	return bipart.FromMask(m, 0), nil
}

// extractSplits extracts a tree's canonical bipartition set for
// fingerprint tests.
func extractSplits(t *testing.T, ts *taxa.Set, nw string) []bipart.Bipartition {
	t.Helper()
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	bs, err := ex.Extract(newick.MustParse(nw))
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestFingerprintSerializationInvariance: the same unrooted topology
// written with rotated children, reordered subtrees, and a different
// rooting must fingerprint identically — the property that makes the
// cache recognize re-parsed replicates.
func TestFingerprintSerializationInvariance(t *testing.T) {
	ts := taxa.MustNewSet([]string{"A", "B", "C", "D", "E", "F"})
	forms := []string{
		"((A,B),((C,D),(E,F)));",
		"(((F,E),(D,C)),(B,A));",
		"((C,D),((A,B),(E,F)));",
		"(A,(B,((C,D),(E,F))));",
	}
	want := TopologyFingerprint(extractSplits(t, ts, forms[0]))
	for _, f := range forms[1:] {
		if got := TopologyFingerprint(extractSplits(t, ts, f)); got != want {
			t.Errorf("fingerprint of %q = %+v, want %+v (same topology)", f, got, want)
		}
	}
	// A genuinely different topology must not collide.
	other := TopologyFingerprint(extractSplits(t, ts, "((A,C),((B,D),(E,F)));"))
	if other == want {
		t.Errorf("distinct topologies share fingerprint %+v", want)
	}
}

// TestFingerprintRelabelDiffers: relabeled-but-isomorphic trees have the
// same shape but different bipartition sets, hence different RF distances
// — the fingerprint must keep them apart or the cache would alias them.
func TestFingerprintRelabelDiffers(t *testing.T) {
	ts := taxa.MustNewSet([]string{"A", "B", "C", "D", "E", "F"})
	a := TopologyFingerprint(extractSplits(t, ts, "((A,B),((C,D),(E,F)));"))
	b := TopologyFingerprint(extractSplits(t, ts, "((A,C),((B,D),(E,F)));"))
	if a == b {
		t.Fatalf("relabeled-isomorphic trees share fingerprint %+v", a)
	}
}

// TestFingerprintOrderInvariance: shuffling the extracted slice must not
// change the key (extraction order is a serialization accident).
func TestFingerprintOrderInvariance(t *testing.T) {
	trees, ts := randomCollection(11, 100, 8)
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	rng := rand.New(rand.NewSource(99))
	for i, tr := range trees {
		bs, err := ex.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := TopologyFingerprint(bs)
		for trial := 0; trial < 4; trial++ {
			rng.Shuffle(len(bs), func(a, b int) { bs[a], bs[b] = bs[b], bs[a] })
			if got := TopologyFingerprint(bs); got != want {
				t.Fatalf("tree %d: shuffled fingerprint %+v != %+v", i, got, want)
			}
		}
	}
}

// TestFingerprinterMatchesTopologyFingerprint: the prober's scratch-reusing
// fingerprinter (counting-sort path) must agree exactly with the one-shot
// entry point and with the comparison-sort fold, at sizes covering the
// 64-bucket, 256-bucket, and beyond-fpRadixMax sort paths — and reused
// scratch must not leak state between sets of different sizes.
func TestFingerprinterMatchesTopologyFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f fingerprinter
	for _, n := range []int{0, 1, 2, 17, 97, 128, 129, 500, 2048, 2049, 3000} {
		hs := make([]uint64, n)
		bs := make([]bipart.Bipartition, n)
		for i := range bs {
			w := rng.Uint64()
			m, err := bipartFromWords([]uint64{w}, 64)
			if err != nil {
				t.Fatal(err)
			}
			bs[i] = m
			hs[i] = m.Hash()
		}
		want := foldTopoKey(slices.Clone(hs))
		if got := f.key(bs); got != want {
			t.Fatalf("n=%d: fingerprinter.key = %+v, want foldTopoKey = %+v", n, got, want)
		}
		if got := TopologyFingerprint(bs); got != want {
			t.Fatalf("n=%d: TopologyFingerprint = %+v, want %+v", n, got, want)
		}
	}
}

// TestFingerprintHashMatchesTable: Bipartition.Hash must be exactly the
// open-addressing table's hashing rule, or LookupHashed would probe the
// wrong slot chain and silently miss present keys.
func TestFingerprintHashMatchesTable(t *testing.T) {
	for _, n := range []int{48, 100, 200} {
		trees, ts := randomCollection(int64(n), n, 5)
		h, err := Build(collection.FromTrees(trees), ts, BuildOptions{
			RequireComplete: true,
			Backend:         BackendOpenAddressing,
		})
		if err != nil {
			t.Fatal(err)
		}
		ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
		for _, tr := range trees {
			bs, err := ex.Extract(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bs {
				if b.Hash() == 0 {
					t.Fatal("zero bipartition hash (0 marks empty table slots)")
				}
				e, ok := h.OpenAddr().LookupHashed(b.Hash(), b.Words())
				if !ok || e.Freq == 0 {
					t.Fatalf("n=%d: LookupHashed missed a built bipartition", n)
				}
			}
		}
	}
}

func BenchmarkTopologyFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 97, 256} {
		bs := make([]bipart.Bipartition, n)
		for i := range bs {
			m, err := bipartFromWords([]uint64{rng.Uint64()}, 64)
			if err != nil {
				b.Fatal(err)
			}
			bs[i] = m
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var f fingerprinter
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.key(bs)
			}
		})
	}
}

// BenchmarkProberCacheCycle is the replicate workload at benchmark scale:
// a query stream cycling through d distinct topologies against a table of
// random trees, cached versus uncached — the in-package view of the
// BFHRF-CACHED/BFHRF-NOCACHE perf pair.
func BenchmarkProberCacheCycle(b *testing.B) {
	trees, ts := randomCollection(7, 100, 2000)
	h, err := Build(collection.FromTrees(trees), ts, BuildOptions{
		RequireComplete: true,
		Backend:         BackendOpenAddressing,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	const distinct = 256
	sets := make([][]bipart.Bipartition, distinct)
	for i := range sets {
		bs, err := ex.Extract(trees[i])
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = bs
	}
	for _, mode := range []string{"cached", "uncached"} {
		b.Run(mode, func(b *testing.B) {
			p := h.NewProber()
			if mode == "cached" {
				p.SetCache(NewQueryCache(0, 0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.AverageRFOfSplits(sets[i%distinct], Plain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
