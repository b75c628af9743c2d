package distrib

import (
	"context"
	"math"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/tree"
)

// repeatTrees cycles a slice of trees `times` over, producing the
// repeat-heavy stream the coordinator cache exists for.
func repeatTrees(ts []*tree.Tree, times int) []*tree.Tree {
	out := make([]*tree.Tree, 0, len(ts)*times)
	for i := 0; i < times; i++ {
		out = append(out, ts...)
	}
	return out
}

// TestCoordinatorCacheHits pins the mid-stream flush behaviour: on a
// repeat-heavy stream the coordinator must publish cache entries as
// batches fill, not hold every insert until EOF. With 4 distinct
// topologies cycled 100× through a batch of 16, the first batch carries
// all four uniques, so at most one batch's worth of queries can miss —
// everything after must hit. A regression that defers inserts to the
// final flush (e.g. a dedupe branch skipping the flush check) shows up
// as zero hits, not a marginal slowdown.
func TestCoordinatorCacheHits(t *testing.T) {
	trees, ts := testCollection(21, 10, 25)
	queries := repeatTrees(trees[:4], 100)

	run := func(cache *core.QueryCache) []core.Result {
		t.Helper()
		addrs := startWorkers(t, 2)
		coord, err := Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		coord.ChunkSize = 9
		coord.BatchSize = 16
		coord.Cache = cache
		if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
			t.Fatal(err)
		}
		res, err := coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
		if err != nil {
			t.Fatal(err)
		}
		return res.Results
	}

	want := run(nil)
	cache := core.NewQueryCache(0, 0)
	got := run(cache)
	if len(got) != len(want) || len(got) != len(queries) {
		t.Fatalf("results = %d cached vs %d uncached, want %d", len(got), len(want), len(queries))
	}
	for i := range got {
		if got[i].Index != want[i].Index ||
			math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
			t.Fatalf("query %d: cached %+v != uncached %+v", i, got[i], want[i])
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("repeat-heavy stream produced no cache hits: %+v", st)
	}
	if st.Misses > 16 {
		t.Errorf("misses = %d, want at most one batch (16): inserts are being deferred", st.Misses)
	}
	if st.Hits+st.Misses != uint64(len(queries)) {
		t.Errorf("hits %d + misses %d != queries %d", st.Hits, st.Misses, len(queries))
	}
}

// TestFingerprintStableAcrossExtractions guards the coordinator's cache
// key derivation: with a mask-reusing extractor, re-extracting the same
// tree after extracting others must reproduce the same fingerprint, and
// must agree with a fresh non-reusing extractor. A drift here poisons
// the cache silently — entries are stored and never found again.
func TestFingerprintStableAcrossExtractions(t *testing.T) {
	trees, ts := testCollection(21, 10, 25)
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	bs, err := ex.Extract(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	k1 := core.TopologyFingerprint(bs)
	for i := 0; i < 5; i++ {
		if _, err := ex.Extract(trees[1+i]); err != nil {
			t.Fatal(err)
		}
		bs, err := ex.Extract(trees[0])
		if err != nil {
			t.Fatal(err)
		}
		if k := core.TopologyFingerprint(bs); k != k1 {
			t.Fatalf("iteration %d: fingerprint drifted: %+v vs %+v", i, k, k1)
		}
	}
	fresh := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	bs2, err := fresh.Extract(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	if k2 := core.TopologyFingerprint(bs2); k2 != k1 {
		t.Fatalf("reuse vs fresh extractor differ: %+v vs %+v", k2, k1)
	}
}
