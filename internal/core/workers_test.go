package core

import (
	"strings"
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

func TestSourceLen(t *testing.T) {
	trees, _ := randomCollection(5, 8, 7)
	if n := sourceLen(collection.FromTrees(trees)); n != 7 {
		t.Fatalf("sourceLen(slice) = %d, want 7", n)
	}
	if n := sourceLen(nonCounting{collection.FromTrees(trees)}); n != -1 {
		t.Fatalf("sourceLen(non-counting) = %d, want -1", n)
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
