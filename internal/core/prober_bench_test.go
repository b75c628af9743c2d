package core

import (
	"math/rand"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/simphy"
)

// benchSplits builds a hash over a synthetic collection of r trees and
// returns query bipartition sets: those of the first hits reference
// trees, whose every split hits, then those of misses fresh random trees,
// whose splits almost all miss. The measured region is that of the BFHRF-OA/BFHRF-SUCC
// perf engines, reproduced here at benchmark scale so
// `go test -bench Prober` localizes backend regressions without a sweep.
func benchSplits(tb testing.TB, backend Backend, n, r, hits, misses int) (*FreqHash, [][]bipart.Bipartition) {
	tb.Helper()
	trees, ts := randomCollection(42, n, r)
	h, err := Build(collection.FromTrees(trees), ts, BuildOptions{
		RequireComplete: true,
		Backend:         backend,
	})
	if err != nil {
		tb.Fatal(err)
	}
	queries := trees[:hits:hits]
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < misses; i++ {
		queries = append(queries, simphy.RandomBinary(ts, rng))
	}
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	splits := make([][]bipart.Bipartition, 0, len(queries))
	for _, t := range queries {
		bs, err := ex.Extract(t)
		if err != nil {
			tb.Fatal(err)
		}
		splits = append(splits, bs)
	}
	return h, splits
}

// plainAllocs is the steady-state allocation count of one Plain answer
// per query set, after a warm-up pass has sized the prober's scratch.
func plainAllocs(tb testing.TB, p *Prober, splits [][]bipart.Bipartition) float64 {
	tb.Helper()
	pass := func() {
		for _, bs := range splits {
			if _, err := p.AverageRFOfSplits(bs, Plain); err != nil {
				tb.Fatal(err)
			}
		}
	}
	pass()
	return testing.AllocsPerRun(5, pass) / float64(len(splits))
}

// TestProberPlainAllocFree: a warm prober answers Plain without
// allocating, on both backends, for one-, two- and three-word keys, on
// hits and misses alike.
func TestProberPlainAllocFree(t *testing.T) {
	for _, backend := range []Backend{BackendOpenAddressing, BackendSuccinct} {
		for _, n := range []int{40, 100, 150} {
			h, splits := benchSplits(t, backend, n, 30, 10, 10)
			if allocs := plainAllocs(t, h.NewProber(), splits); allocs != 0 {
				t.Errorf("%v n=%d: warm prober allocates %v times per query, want 0", backend, n, allocs)
			}
		}
	}
}

func benchmarkProber(b *testing.B, backend Backend, n, r, hits, misses int) {
	h, splits := benchSplits(b, backend, n, r, hits, misses)
	p := h.NewProber()
	if allocs := plainAllocs(b, p, splits); allocs != 0 {
		b.Fatalf("warm prober allocates %v times per query, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := splits[i%len(splits)]
		if _, err := p.AverageRFOfSplits(bs, Plain); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.FootprintBytes())/(1<<20), "table-MiB")
}

func BenchmarkProberOA48(b *testing.B)    { benchmarkProber(b, BackendOpenAddressing, 48, 200, 200, 0) }
func BenchmarkProberSucc48(b *testing.B)  { benchmarkProber(b, BackendSuccinct, 48, 200, 200, 0) }
func BenchmarkProberOA500(b *testing.B)   { benchmarkProber(b, BackendOpenAddressing, 500, 200, 200, 0) }
func BenchmarkProberSucc500(b *testing.B) { benchmarkProber(b, BackendSuccinct, 500, 200, 200, 0) }

// Tables well past a 4 MiB L2 cache: open addressing at the paper's
// n=100 (20 MiB) and the succinct backend at n=4096 (39 MiB). Half the
// queries hit, half miss.
func BenchmarkProberOA100Large(b *testing.B) {
	benchmarkProber(b, BackendOpenAddressing, 100, 4000, 100, 100)
}
func BenchmarkProberSucc4096(b *testing.B) {
	benchmarkProber(b, BackendSuccinct, 4096, 100, 10, 10)
}
