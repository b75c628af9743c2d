package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/taxa"
)

// The backend-equivalence property: the open-addressing table and the
// succinct table must be observationally identical — byte-identical
// Entries output and identical AverageRF across every variant — on
// randomized tree collections. Branch lengths in randomCollection are
// unit, so even the weighted sums are exact in floating point regardless
// of fold order.

// equivBackends builds the same collection on both backends with the
// given worker count; the open-addressing hash is the reference fold.
func equivBackends(t *testing.T, src collection.Source, ts *taxa.Set, workers int) map[Backend]*FreqHash {
	t.Helper()
	hs := make(map[Backend]*FreqHash, 2)
	for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		h, err := Build(src, ts, BuildOptions{RequireComplete: true, Workers: workers, Backend: b})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if h.Backend() != b {
			t.Fatalf("backend selection wrong: built %v, want %v", h.Backend(), b)
		}
		hs[b] = h
	}
	return hs
}

func TestBackendsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 10 + rng.Intn(120) // 1 to 3 words per mask
		r := 20 + rng.Intn(120)
		trees, ts := randomCollection(int64(100+trial), n, r)
		src := collection.FromTrees(trees)

		hs := equivBackends(t, src, ts, 1)
		mp := hs[BackendOpenAddressing]
		for _, b := range []Backend{BackendSuccinct} {
			h := hs[b]
			if h.UniqueBipartitions() != mp.UniqueBipartitions() ||
				h.TotalBipartitions() != mp.TotalBipartitions() {
				t.Fatalf("trial %d %v: sizes differ: unique %d/%d total %d/%d", trial, b,
					h.UniqueBipartitions(), mp.UniqueBipartitions(),
					h.TotalBipartitions(), mp.TotalBipartitions())
			}

			// Entries(minFreq): byte-identical, including order.
			for _, minFreq := range []int{0, 2} {
				eh, err := h.Entries(minFreq)
				if err != nil {
					t.Fatal(err)
				}
				em, err := mp.Entries(minFreq)
				if err != nil {
					t.Fatal(err)
				}
				if len(eh) != len(em) {
					t.Fatalf("trial %d %v minFreq %d: %d vs %d entries", trial, b, minFreq, len(eh), len(em))
				}
				for i := range eh {
					if eh[i].Bipartition.Key() != em[i].Bipartition.Key() ||
						eh[i].Frequency != em[i].Frequency ||
						eh[i].Support != em[i].Support ||
						eh[i].MeanLength != em[i].MeanLength {
						t.Fatalf("trial %d %v minFreq %d entry %d differs: %+v vs %+v",
							trial, b, minFreq, i, eh[i], em[i])
					}
				}
			}

			// AverageRF: identical across every variant (unit lengths make
			// the weighted sums exact, so == is the right comparison).
			for _, v := range []Variant{Plain, Normalized, Weighted, Info} {
				rh, err := h.AverageRF(src, QueryOptions{RequireComplete: true, Workers: 1, Variant: v})
				if err != nil {
					t.Fatal(err)
				}
				rm, err := mp.AverageRF(src, QueryOptions{RequireComplete: true, Workers: 1, Variant: v})
				if err != nil {
					t.Fatal(err)
				}
				for i := range rh {
					if rh[i].AvgRF != rm[i].AvgRF {
						t.Fatalf("trial %d %v variant %v tree %d: %v vs %v",
							trial, b, v, i, rh[i].AvgRF, rm[i].AvgRF)
					}
				}
			}
		}
	}
}

// TestBackendsEquivalentParallelBuild repeats the Plain check with a
// parallel build: integer frequencies are order-independent, so the
// backends must still agree exactly no matter how trees land on workers.
// For the succinct backend this also exercises the parallel consuming
// merge and the post-merge dictionary freeze.
func TestBackendsEquivalentParallelBuild(t *testing.T) {
	trees, ts := randomCollection(53, 80, 400)
	src := collection.FromTrees(trees)
	hs := equivBackends(t, src, ts, 6)
	rm, err := hs[BackendOpenAddressing].AverageRF(src, QueryOptions{RequireComplete: true, Variant: Plain})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendSuccinct} {
		rh, err := hs[b].AverageRF(src, QueryOptions{RequireComplete: true, Variant: Plain})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rh {
			if rh[i].AvgRF != rm[i].AvgRF {
				t.Fatalf("%v tree %d: %v vs %v", b, i, rh[i].AvgRF, rm[i].AvgRF)
			}
		}
	}
}

// TestBackendAutoSelection pins the defaulting rules: auto is
// open-addressing below the succinct key-size threshold and succinct at
// it, and the retired map backend is refused by name.
func TestBackendAutoSelection(t *testing.T) {
	trees, ts := randomCollection(3, 16, 10)
	src := collection.FromTrees(trees)
	h, err := Build(src, ts, BuildOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.Backend() != BackendOpenAddressing {
		t.Fatalf("auto backend = %v, want openaddr", h.Backend())
	}
	if _, err := ParseBackend("map"); err == nil || !strings.Contains(err.Error(), "succinct") {
		t.Fatalf("ParseBackend(map) = %v, want an error naming succinct", err)
	}
	// At and past autoSuccinctKeyBytes of raw key, auto flips to succinct.
	bigTrees, bigTS := randomCollection(5, 8*autoSuccinctKeyBytes, 4)
	h, err = Build(collection.FromTrees(bigTrees), bigTS, BuildOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.Backend() != BackendSuccinct {
		t.Fatalf("auto backend at n=%d = %v, want succinct", bigTS.Len(), h.Backend())
	}
}

// TestBackendIncrementalUpdates checks AddTree/RemoveTree equivalence:
// after identical update sequences all backends answer identically, and
// the table tombstone paths (remove to zero, then re-add) keep the
// structures consistent — for the succinct table that revival happens in
// the frozen, dictionary-bearing state.
func TestBackendIncrementalUpdates(t *testing.T) {
	trees, ts := randomCollection(29, 40, 30)
	src := collection.FromTrees(trees[:20])
	hs := equivBackends(t, src, ts, 1)
	for _, h := range hs {
		for _, tr := range trees[20:] {
			if err := h.AddTree(tr, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		// Remove the first 10 (drives some frequencies to 0 → tombstones),
		// then re-add 5 of them (revival path).
		for _, tr := range trees[:10] {
			if err := h.RemoveTree(tr, nil, true); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range trees[:5] {
			if err := h.AddTree(tr, nil, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	mp := hs[BackendOpenAddressing]
	all := collection.FromTrees(trees)
	rm, err := mp.AverageRF(all, QueryOptions{RequireComplete: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendSuccinct} {
		h := hs[b]
		if h.UniqueBipartitions() != mp.UniqueBipartitions() ||
			h.TotalBipartitions() != mp.TotalBipartitions() {
			t.Fatalf("%v post-update sizes differ: unique %d/%d total %d/%d", b,
				h.UniqueBipartitions(), mp.UniqueBipartitions(),
				h.TotalBipartitions(), mp.TotalBipartitions())
		}
		rh, err := h.AverageRF(all, QueryOptions{RequireComplete: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rh {
			if rh[i].AvgRF != rm[i].AvgRF {
				t.Fatalf("%v tree %d: %v vs %v", b, i, rh[i].AvgRF, rm[i].AvgRF)
			}
		}
	}
}
