package distrib

import (
	"context"
	"math"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
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

	got, err := coord2.AverageRF(collection.FromTrees(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: migrated cluster %v vs local %v", i, got[i].AvgRF, want[i].AvgRF)
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
		got, err := coord2.AverageRF(collection.FromTrees(queries))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i].AvgRF-want[i].AvgRF) > 1e-9 {
				t.Errorf("%d workers: query %d: restored %v vs local %v", nw, i, got[i].AvgRF, want[i].AvgRF)
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
