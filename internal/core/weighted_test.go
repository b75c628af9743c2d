package core

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Weighted semantics: branch lengths are summed as exact int64 counts of
// 10⁻⁹ quanta, so the stored sums, and every Weighted answer, do not depend
// on the order a build reached the splits in.

// weightedCollection is randomCollection with every edge given a random
// 17-digit length.
func weightedCollection(seed int64, n, r int) ([]*tree.Tree, *taxa.Set) {
	trees, ts := randomCollection(seed, n, r)
	rng := rand.New(rand.NewSource(seed + 1))
	for _, tr := range trees {
		tr.Postorder(func(nd *tree.Node) { nd.Length, nd.HasLength = rng.Float64(), true })
	}
	return trees, ts
}

// TestWeightedBitIdenticalAcrossWorkers: 1, 2, 4 and 8 build workers split
// a 2000-tree collection differently, and both backends insert in their
// own orders; every build gives the same Weighted answers bit for bit.
func TestWeightedBitIdenticalAcrossWorkers(t *testing.T) {
	trees, ts := weightedCollection(28, 100, 2000)
	src, queries := collection.FromTrees(trees), collection.FromTrees(trees[:200])
	var want []Result
	var wantLen int64
	for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		for _, w := range []int{1, 2, 4, 8} {
			h, err := Build(src, ts, BuildOptions{Workers: w, RequireComplete: true, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.AverageRF(queries, QueryOptions{Workers: 2, Variant: Weighted, RequireComplete: true})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantLen = got, h.TotalLengthSum()
				continue
			}
			if h.TotalLengthSum() != wantLen {
				t.Fatalf("%v, %d workers: length sum %d quanta, first build %d", b, w, h.TotalLengthSum(), wantLen)
			}
			for i := range want {
				if math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
					t.Fatalf("%v, %d workers: query %d = %v, first build %v", b, w, i, got[i].AvgRF, want[i].AvgRF)
				}
			}
		}
	}
}

// TestWeightedIsExactDecimal: lengths with at most nine fractional digits
// sum exactly, so the totals and answers are the exact decimal results —
// 0.1 + 0.2 is 0.3 here, not 0.30000000000000004.
func TestWeightedIsExactDecimal(t *testing.T) {
	refs := parseTrees([]string{
		"((A,B):0.1,C,(D,E):0.2);",
		"((A,B):0.7,C,(D,E):0.1);",
		"((A,C):0.2,B,(D,E):0.7);",
	})
	ts := taxa.MustNewSet([]string{"A", "B", "C", "D", "E"})
	for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		h, err := Build(collection.FromTrees(refs), ts, BuildOptions{Workers: 1, RequireComplete: true, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.TotalLengthSum(); got != 2_000_000_000 {
			t.Fatalf("%v: length sum %d quanta, want 2e9 (0.1+0.2+0.7+0.1+0.2+0.7)", b, got)
		}
		for _, c := range []struct {
			query string
			want  float64
		}{
			// Unshared mass per reference tree: 0, 0, 0.2 (AC) + 0.4 (AB).
			{"((A,B):0.4,C,(D,E):0.9);", 0.2},
			// 0.1 (AB) + 0.8 (AC), 0.7 + 0.8, 0.
			{"((A,C):0.8,B,(D,E):0.1);", 0.8},
		} {
			got, err := h.AverageRF(collection.FromTrees(parseTrees([]string{c.query})),
				QueryOptions{Variant: Weighted, RequireComplete: true})
			if err != nil {
				t.Fatal(err)
			}
			if got[0].AvgRF != c.want {
				t.Errorf("%v: %s = %v, want %v", b, c.query, got[0].AvgRF, c.want)
			}
		}
	}
}

// TestInt128MatchesBig holds the Weighted fold's accumulator to math/big
// on random products of every sign and size, and on the int64 extremes.
func TestInt128MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	edge := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	var a int128
	want := new(big.Int)
	for i := 0; i < 20000; i++ {
		x, y := rng.Int63()>>uint(rng.Intn(63)), rng.Int63()>>uint(rng.Intn(63))
		if rng.Intn(2) == 0 {
			x = -x
		}
		if rng.Intn(2) == 0 {
			y = -y
		}
		if i < len(edge)*len(edge) {
			x, y = edge[i/len(edge)], edge[i%len(edge)]
		}
		if i%2 == 0 {
			// Two products of at most 2¹²⁶ each keep the sum in 128 bits.
			want.SetInt64(0)
			a = int128{}
		}
		a.addMul(x, y)
		want.Add(want, new(big.Int).Mul(big.NewInt(x), big.NewInt(y)))
		got := new(big.Int).Lsh(big.NewInt(int64(a.hi)), 64)
		got.Add(got, new(big.Int).SetUint64(a.lo))
		if got.Cmp(want) != 0 {
			t.Fatalf("step %d: %v, want %v", i, got, want)
		}
		if f, _ := new(big.Float).SetInt(want).Float64(); want.IsInt64() && a.float64() != f {
			t.Fatalf("step %d: float64 %v, want %v", i, a.float64(), f)
		}
	}
}

// TestLengthOverflowIsAnError: a collection whose summed |length| passes
// the int64 range of quanta fails its build naming a tree, and an update
// that would pass it fails and changes nothing; neither wraps.
func TestLengthOverflowIsAnError(t *testing.T) {
	ts := taxa.MustNewSet([]string{"A", "B", "C", "D", "E"})
	big := parseTrees([]string{"((A,B):4e9,C,(D,E):-4e9);", "((A,B):1,C,(D,E):1);", "((A,C):4e9,B,(D,E):1);"})
	for _, w := range []int{1, 2} {
		_, err := Build(collection.FromTrees(big), ts, BuildOptions{Workers: w, RequireComplete: true})
		if err == nil || !strings.Contains(err.Error(), "reference tree ") || !strings.Contains(err.Error(), "int64 range") {
			t.Fatalf("%d workers: build error %v, want an int64-range error naming a tree", w, err)
		}
	}
	h, err := Build(collection.FromTrees(big[:2]), ts, BuildOptions{Workers: 1, RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	before := h.TotalLengthSum()
	if err := h.AddTree(big[2], nil, true); err == nil || !strings.Contains(err.Error(), "int64 range") {
		t.Fatalf("AddTree past the budget: %v, want an int64-range error", err)
	}
	if h.NumTrees() != 2 || h.TotalLengthSum() != before {
		t.Fatalf("failed AddTree left %d trees, length sum %d (was %d)", h.NumTrees(), h.TotalLengthSum(), before)
	}
	// One length past the range fails at extraction.
	_, err = Build(collection.FromTrees(parseTrees([]string{"((A,B):1e10,C,(D,E):1);"})), ts, BuildOptions{RequireComplete: true})
	if err == nil || !strings.Contains(err.Error(), "reference tree 0: bipart: branch length") {
		t.Fatalf("build with a 1e10 length: %v", err)
	}
	if _, err := bipart.Quantize(math.NaN()); err == nil {
		t.Fatal("Quantize(NaN) succeeded")
	}
}

// TestSmallBuildOfUnknownSizeIsDeterministic: a weighted build of a small
// collection of unknown size sums its branch lengths in stream order on
// one worker, so every run of it, on either backend, gives the one-worker
// build's weighted answers bit for bit.
func TestSmallBuildOfUnknownSizeIsDeterministic(t *testing.T) {
	trees, ts := randomCollection(17, 16, 40)
	rng := rand.New(rand.NewSource(18))
	for _, tr := range trees {
		tr.Postorder(func(nd *tree.Node) { nd.Length, nd.HasLength = rng.Float64()+0.01, true })
	}
	src := collection.FromTrees(trees)
	answers := func(h *FreqHash) []Result {
		res, err := h.AverageRF(src, QueryOptions{Workers: 1, Variant: Weighted, RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, err := Build(src, ts, BuildOptions{Workers: 1, RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	want := answers(one)
	for run := 0; run < 20; run++ {
		for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct} {
			h, err := Build(nonCounting{src}, ts, BuildOptions{Workers: 4, RequireComplete: true, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range answers(h) {
				if math.Float64bits(r.AvgRF) != math.Float64bits(want[i].AvgRF) {
					t.Fatalf("run %d backend %v: query %d = %v, one-worker build %v", run, b, i, r.AvgRF, want[i].AvgRF)
				}
			}
		}
	}
}
