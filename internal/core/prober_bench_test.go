package core

import (
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
)

// benchSplits builds a hash over a synthetic collection and returns the
// same trees' pre-extracted bipartition sets — the measured region of the
// BFHRF-OA/BFHRF-SUCC perf engines, reproduced here at benchmark scale so
// `go test -bench Prober` localizes backend regressions without a sweep.
func benchSplits(b *testing.B, backend Backend, n, r int) (*FreqHash, [][]bipart.Bipartition) {
	b.Helper()
	trees, ts := randomCollection(42, n, r)
	h, err := Build(collection.FromTrees(trees), ts, BuildOptions{
		RequireComplete: true,
		Backend:         backend,
	})
	if err != nil {
		b.Fatal(err)
	}
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	splits := make([][]bipart.Bipartition, 0, len(trees))
	for _, t := range trees {
		bs, err := ex.Extract(t)
		if err != nil {
			b.Fatal(err)
		}
		splits = append(splits, bs)
	}
	return h, splits
}

func benchmarkProber(b *testing.B, backend Backend, n int) {
	h, splits := benchSplits(b, backend, n, 200)
	p := h.NewProber()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := splits[i%len(splits)]
		if _, err := p.AverageRFOfSplits(bs, Plain); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProberOA48(b *testing.B)    { benchmarkProber(b, BackendOpenAddressing, 48) }
func BenchmarkProberSucc48(b *testing.B)  { benchmarkProber(b, BackendSuccinct, 48) }
func BenchmarkProberOA500(b *testing.B)   { benchmarkProber(b, BackendOpenAddressing, 500) }
func BenchmarkProberSucc500(b *testing.B) { benchmarkProber(b, BackendSuccinct, 500) }
