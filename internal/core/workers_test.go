package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/collection"
)

// TestEffectiveWorkersClamp pins the small-workload clamp that fixed the
// BENCH_0001 regression (DSMP8 slower than DS on a 289-tree slice): the
// effective worker count is min(requested, trees/64), at least 1, with
// unknown sizes passing the request through.
func TestEffectiveWorkersClamp(t *testing.T) {
	cases := []struct {
		requested, trees, want int
	}{
		{8, 289, 4},   // the BENCH_0001 avian slice at scale 0.02
		{8, 63, 1},    // below one floor: sequential
		{8, 64, 1},    // exactly one floor
		{8, 128, 2},   // two floors
		{8, 10000, 8}, // large workload: request honored
		{2, 10000, 2},
		{8, 0, 8},  // unknown size passes through
		{8, -1, 8}, // Counter convention: negative = unknown
		{0, 10, 1}, // degenerate request
	}
	for _, c := range cases {
		if got := EffectiveWorkers(c.requested, c.trees); got != c.want {
			t.Errorf("EffectiveWorkers(%d, %d) = %d, want %d",
				c.requested, c.trees, got, c.want)
		}
	}
}

// nonCounting hides the Counter (and everything else) behind the bare
// Source interface.
type nonCounting struct{ collection.Source }

// TestEarliestBadTreeReported: of two bad trees, Build and AverageRF name
// the earlier one on every run, whichever worker fails first, both for
// trees in memory and for a file read as raw statements.
func TestEarliestBadTreeReported(t *testing.T) {
	trees, ts := randomCollection(41, 12, 600)
	h := buildHash(t, trees, ts)
	bad, _ := randomCollection(42, 13, 2) // each has a leaf ts lacks
	trees[40], trees[500] = bad[0], bad[1]
	for _, src := range []collection.Source{collection.FromTrees(trees), writeCollection(t, trees)} {
		for run := 0; run < 25; run++ {
			_, err := Build(src, ts, BuildOptions{RequireComplete: true, Workers: 4})
			if err == nil || !strings.HasPrefix(err.Error(), "core: reference tree 40: ") {
				t.Fatalf("%T: Build error = %v, want one naming reference tree 40", src, err)
			}
			_, err = h.AverageRF(src, QueryOptions{RequireComplete: true, Workers: 4})
			if err == nil || !strings.HasPrefix(err.Error(), "core: query tree 40: ") {
				t.Fatalf("%T: AverageRF error = %v, want one naming query tree 40", src, err)
			}
		}
	}
}

// TestQueryCancelMidPassKeepsFinishedResults: a multi-worker query pass
// cancelled part-way returns exactly the results it finished — every one
// OnResult saw and no other — in index order, each equal to an
// uncancelled run's, for trees in memory and for a file.
func TestQueryCancelMidPassKeepsFinishedResults(t *testing.T) {
	trees, ts := randomCollection(43, 12, 2000)
	h := buildHash(t, trees[:200], ts)
	full, err := h.AverageRF(collection.FromTrees(trees), QueryOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []collection.Source{collection.FromTrees(trees), writeCollection(t, trees)} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		seen := map[int]bool{}
		res, err := h.AverageRF(src, QueryOptions{Workers: 4, Context: ctx, OnResult: func(r Result) {
			mu.Lock()
			defer mu.Unlock()
			seen[r.Index] = true
			if len(seen) == 100 {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: error %v, want context.Canceled", src, err)
		}
		if len(res) != len(seen) || len(res) >= len(trees) {
			t.Fatalf("%T: returned %d results, OnResult saw %d of %d", src, len(res), len(seen), len(trees))
		}
		for i, r := range res {
			if !seen[r.Index] || (i > 0 && res[i-1].Index >= r.Index) {
				t.Fatalf("%T: result %d (query %d) was not finished, or is out of index order", src, i, r.Index)
			}
			if r.AvgRF != full[r.Index].AvgRF {
				t.Fatalf("%T: query %d = %v, uncancelled run %v", src, r.Index, r.AvgRF, full[r.Index].AvgRF)
			}
		}
	}
}
