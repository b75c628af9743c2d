package distrib

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bfhsnap"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/tree"
)

// TestSnapshotRoundTrip: encode→decode must reproduce an observationally
// identical hash, for both backends.
func TestSnapshotRoundTrip(t *testing.T) {
	trees, ts := testCollection(23, 70, 60) // 2 words per mask
	src := collection.FromTrees(trees)
	cases := []struct {
		name string
		opts core.BuildOptions
	}{
		{"openaddr", core.BuildOptions{RequireComplete: true, Backend: core.BackendOpenAddressing}},
		{"succinct", core.BuildOptions{RequireComplete: true, Backend: core.BackendSuccinct}},
	}
	for _, c := range cases {
		h, err := core.Build(src, ts, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := EncodeSnapshot(h)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		got, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if got.NumTrees() != h.NumTrees() ||
			got.UniqueBipartitions() != h.UniqueBipartitions() ||
			got.TotalBipartitions() != h.TotalBipartitions() ||
			got.Weighted() != h.Weighted() ||
			got.Backend() != h.Backend() {
			t.Fatalf("%s: restored shape differs: trees %d/%d unique %d/%d total %d/%d",
				c.name, got.NumTrees(), h.NumTrees(),
				got.UniqueBipartitions(), h.UniqueBipartitions(),
				got.TotalBipartitions(), h.TotalBipartitions())
		}
		// Entries are the full observable state: byte-identical, in order.
		eh, err := h.Entries(0)
		if err != nil {
			t.Fatal(err)
		}
		eg, err := got.Entries(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(eh) != len(eg) {
			t.Fatalf("%s: %d vs %d entries", c.name, len(eh), len(eg))
		}
		for i := range eh {
			if eh[i].Bipartition.Key() != eg[i].Bipartition.Key() ||
				eh[i].Frequency != eg[i].Frequency ||
				eh[i].MeanLength != eg[i].MeanLength {
				t.Fatalf("%s: entry %d differs", c.name, i)
			}
		}
	}
}

func TestDecodeSnapshotRejectsCorrupt(t *testing.T) {
	trees, ts := testCollection(5, 16, 10)
	h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot decoded")
	}
	if _, err := DecodeSnapshot(append([]byte("XXXX"), data[4:]...)); err == nil {
		t.Error("bad magic decoded")
	}
	if _, err := DecodeSnapshot(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing bytes decoded")
	}
}

// TestMigrateShard moves a loaded shard onto a fresh worker and verifies
// the cluster still answers exactly like a single-node run.
func TestMigrateShard(t *testing.T) {
	trees, ts := testCollection(31, 20, 120)
	queries := trees[:30]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	// Three workers; only the first two get reference chunks. Then migrate
	// shard 0 onto the idle third worker and retire worker 0 by re-pointing
	// the coordinator at workers {2, 1}.
	addrs := startWorkers(t, 3)
	coord, err := Dial(addrs[:2])
	if err != nil {
		t.Fatal(err)
	}
	coord.ChunkSize = 13
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	data, err := coord.SnapshotWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()

	coord2, err := Dial([]string{addrs[2], addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if err := coord2.RestoreWorker(0, data); err != nil {
		t.Fatal(err)
	}
	// Re-fold the totals from the new cluster shape (Load normally does
	// this): probe both workers with an empty query.
	coord2.sum, coord2.r = 0, 0
	for i := 0; i < coord2.NumWorkers(); i++ {
		var reply QueryReply
		if err := coord2.call(context.Background(), i, "Query", QueryArgs{}, &reply); err != nil {
			t.Fatal(err)
		}
		coord2.sum += reply.ShardSum
		coord2.r += reply.ShardTrees
	}
	if coord2.r != len(trees) {
		t.Fatalf("migrated cluster holds %d trees, want %d", coord2.r, len(trees))
	}

	got, err := coord2.AverageRFContext(context.Background(), collection.FromTrees(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Results {
		if math.Abs(got.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: migrated cluster %v vs local %v", i, got.Results[i].AvgRF, want[i].AvgRF)
		}
	}
}

// TestClusterSnapshotSaveLoad persists a loaded cluster as a
// worker-layout epoch and restores it onto a fresh cluster — including
// one with fewer workers, which must merge the extra parts — checking
// the restored cluster answers exactly like a single-node build.
func TestClusterSnapshotSaveLoad(t *testing.T) {
	trees, ts := testCollection(47, 24, 90)
	queries := trees[:20]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	addrs := startWorkers(t, 3)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	coord.ChunkSize = 11
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	epoch, err := coord.SaveSnapshotsContext(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first save published epoch %d, want 1", epoch)
	}
	wantFP := coord.Fingerprint()
	coord.Close()

	for _, nw := range []int{3, 2} {
		fresh := startWorkers(t, nw)
		coord2, err := Dial(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord2.LoadSnapshotContext(context.Background(), dir); err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		if coord2.r != len(trees) {
			t.Fatalf("%d workers: restored cluster holds %d trees, want %d", nw, coord2.r, len(trees))
		}
		if coord2.Fingerprint() != wantFP {
			t.Fatalf("%d workers: fingerprint %016x, want %016x", nw, coord2.Fingerprint(), wantFP)
		}
		got, err := coord2.AverageRFContext(context.Background(), collection.FromTrees(queries))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Results {
			if math.Abs(got.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
				t.Errorf("%d workers: query %d: restored %v vs local %v", nw, i, got.Results[i].AvgRF, want[i].AvgRF)
			}
		}
		coord2.Close()
	}
}

// TestInitBackendSelection drives the InitArgs backend plumbing end to end.
func TestInitBackendSelection(t *testing.T) {
	trees, ts := testCollection(7, 12, 40)
	for _, backend := range []core.Backend{core.BackendOpenAddressing, core.BackendSuccinct} {
		addrs := startWorkers(t, 1)
		coord, err := Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		coord.Backend = backend
		coord.HashShards = 4
		if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
			t.Fatal(err)
		}
		data, err := coord.SnapshotWorker(0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if h.Backend() != backend {
			t.Errorf("worker built %v hash, want %v", h.Backend(), backend)
		}
		coord.Close()
	}
}

// withLengths clones trees, setting every branch length (on) or clearing
// every one (off).
func withLengths(trees []*tree.Tree, on bool) []*tree.Tree {
	out := make([]*tree.Tree, len(trees))
	for i, tr := range trees {
		c := tr.Clone()
		c.Postorder(func(nd *tree.Node) {
			nd.Length, nd.HasLength = 0, false
			if on && nd.Parent != nil {
				nd.Length, nd.HasLength = 0.5, true
			}
		})
		out[i] = c
	}
	return out
}

// TestMergeHashesWeightedNeedsEveryShard: a weighted hash claims a length
// on every bipartition, so merging one shard with lengths and one without
// must yield an unweighted hash, in either order.
func TestMergeHashesWeightedNeedsEveryShard(t *testing.T) {
	trees, ts := testCollection(29, 12, 20)
	build := func(trees []*tree.Tree) *core.FreqHash {
		h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{RequireComplete: true})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	weighted, plain := build(withLengths(trees[:10], true)), build(withLengths(trees[10:], false))
	if !weighted.Weighted() || plain.Weighted() {
		t.Fatalf("fixture: Weighted() = %v / %v, want true / false", weighted.Weighted(), plain.Weighted())
	}
	for _, c := range []struct {
		name string
		a, b *core.FreqHash
		want bool
	}{
		{"weighted+plain", weighted, plain, false},
		{"plain+weighted", plain, weighted, false},
		{"weighted+weighted", weighted, weighted, true},
	} {
		m, err := core.Merge(c.a, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.Weighted() != c.want {
			t.Errorf("%s: merged Weighted() = %v, want %v", c.name, m.Weighted(), c.want)
		}
	}
}

// TestMergeHashesMatchesSingleBuild: failover merges (core.Merge) a dead worker's
// shard into a survivor's; with 17-digit random lengths the merged hash
// still equals one build of both shards' trees, length sum and Weighted
// answers bit for bit, although it added each split's lengths in another
// order.
func TestMergeHashesMatchesSingleBuild(t *testing.T) {
	trees, ts := testCollection(33, 30, 80)
	rng := rand.New(rand.NewSource(34))
	for _, tr := range trees {
		tr.Postorder(func(nd *tree.Node) { nd.Length, nd.HasLength = rng.Float64(), true })
	}
	for _, b := range []core.Backend{core.BackendOpenAddressing, core.BackendSuccinct} {
		build := func(trees []*tree.Tree) *core.FreqHash {
			h, err := core.Build(collection.FromTrees(trees), ts, core.BuildOptions{RequireComplete: true, Workers: 1, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		// Odd and even trees, as round-robin chunks of one would land.
		var odd, even []*tree.Tree
		for i, tr := range trees {
			if i%2 == 0 {
				even = append(even, tr)
			} else {
				odd = append(odd, tr)
			}
		}
		m, err := core.Merge(build(odd), build(even))
		if err != nil {
			t.Fatal(err)
		}
		whole := build(trees)
		if err := bfhsnap.VerifyAgainst(m, whole); err != nil {
			t.Fatalf("%v: merged vs single build: %v", b, err)
		}
		opts := core.QueryOptions{Variant: core.Weighted, RequireComplete: true}
		got, err := m.AverageRF(collection.FromTrees(trees[:20]), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := whole.AverageRF(collection.FromTrees(trees[:20]), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
				t.Fatalf("%v: query %d = %v, single build %v", b, i, got[i].AvgRF, want[i].AvgRF)
			}
		}
	}
}

// TestClusterSnapshotWeightedManifest: a worker-layout epoch whose parts
// disagree on branch lengths must not claim lengths in its MANIFEST.
func TestClusterSnapshotWeightedManifest(t *testing.T) {
	trees, ts := testCollection(31, 12, 20)
	// ChunkSize 10 over two workers: worker 0 holds the weighted half,
	// worker 1 the unweighted one.
	mixed := append(withLengths(trees[:10], true), withLengths(trees[10:], false)...)
	coord, err := Dial(startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 10
	if err := coord.Load(collection.FromTrees(mixed), ts, false); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	epoch, err := coord.SaveSnapshotsContext(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := bfhsnap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Manifest(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if man.Weighted {
		t.Error("MANIFEST claims branch lengths that one part does not have")
	}
}

// TestFingerprintTracksContent: two collections of binary trees on the
// same taxa have the same tree count and bipartition mass, so only the
// content digest tells them apart; the cluster's shape must not matter.
func TestFingerprintTracksContent(t *testing.T) {
	trees, ts := testCollection(37, 12, 30)
	other, _ := testCollection(38, 12, 30)
	fp := func(trees []*tree.Tree, workers, chunk int) uint64 {
		coord, err := Dial(startWorkers(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		coord.ChunkSize = chunk
		if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
			t.Fatal(err)
		}
		return coord.Fingerprint()
	}
	base := fp(trees, 2, 7)
	if got := fp(trees, 3, 4); got != base {
		t.Errorf("cluster shape changed the fingerprint: %016x vs %016x", got, base)
	}
	if got := fp(other, 2, 7); got == base {
		t.Errorf("different references share fingerprint %016x", got)
	}
}
