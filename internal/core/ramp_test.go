package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/tree"
)

// TestRampStartsOneWorkerPer64Trees: a ramping pool over a source of
// unknown size starts worker w only once the feed has read 64·(w+1)
// trees, so a collection of N trees runs on at most
// EffectiveWorkers(requested, N) workers — the clamp a known size gets,
// with no counting pass.
func TestRampStartsOneWorkerPer64Trees(t *testing.T) {
	for _, r := range []int{40, 127, 300} {
		trees, ts := randomCollection(int64(r), 12, r)
		var mu sync.Mutex
		used := map[int]bool{}
		p := pool{kind: "reference", workers: 4, taxa: ts, ramp: true}
		_, err := p.run(context.Background(), nonCounting{collection.FromTrees(trees)}, func(int) {},
			func(w, _ int, _ []bipart.Bipartition) error {
				mu.Lock()
				defer mu.Unlock()
				used[w] = true
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for w := range used {
			if w >= EffectiveWorkers(4, r) {
				t.Errorf("r=%d: worker %d ran; the clamp allows %d", r, w, EffectiveWorkers(4, r))
			}
		}
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
