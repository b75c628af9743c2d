package distrib

import (
	"context"
	"math"
	"math/rand"
	"net"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// startWorkers launches k workers on ephemeral localhost ports.
func startWorkers(t testing.TB, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func testCollection(seed int64, n, r int) ([]*tree.Tree, *taxa.Set) {
	ts := taxa.Generate(n)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*tree.Tree, r)
	for i := range trees {
		trees[i] = simphy.RandomBinary(ts, rng)
	}
	return trees, ts
}

// TestDistributedMatchesLocal: the sharded computation must be exactly the
// single-node BFHRF result, for several worker counts and shard shapes.
func TestDistributedMatchesLocal(t *testing.T) {
	trees, ts := testCollection(11, 20, 150)
	queries := trees[:40]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 5} {
		addrs := startWorkers(t, workers)
		coord, err := Dial(addrs)
		if err != nil {
			t.Fatal(err)
		}
		coord.ChunkSize = 17 // force many uneven chunks
		coord.BatchSize = 7
		if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("workers=%d: results = %d, want %d", workers, len(got.Results), len(want))
		}
		for i := range got.Results {
			if math.Abs(got.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
				t.Errorf("workers=%d query %d: distributed %v vs local %v",
					workers, i, got.Results[i].AvgRF, want[i].AvgRF)
			}
		}
		coord.Close()
	}
}

// TestDistributedCompressedShards: Load's compress flag puts every shard
// on the succinct backend (the §IX compressed keys), with answers equal
// to a local build.
func TestDistributedCompressedShards(t *testing.T) {
	trees, ts := testCollection(5, 12, 60)
	addrs := startWorkers(t, 2)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, true); err != nil {
		t.Fatal(err)
	}
	// One default-size chunk: every tree lands on worker 0.
	data, err := coord.SnapshotWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	} else if h.Backend() != core.BackendSuccinct {
		t.Errorf("worker built a %v hash under compress, want succinct", h.Backend())
	}
	got, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:10]))
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(trees[:10]), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Results {
		if math.Abs(got.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: %v vs %v", i, got.Results[i].AvgRF, want[i].AvgRF)
		}
	}
}

func TestMoreWorkersThanChunks(t *testing.T) {
	// 4 workers, 3 trees with a huge chunk size: some workers stay empty
	// and must be tolerated.
	trees, ts := testCollection(9, 8, 3)
	addrs := startWorkers(t, 4)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 100
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	res, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d", len(res.Results))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Error("no addresses should fail")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable worker should fail")
	}
	addrs := startWorkers(t, 1)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Query before Load.
	trees, ts := testCollection(2, 8, 4)
	if _, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees)); err == nil {
		t.Error("Query before Load should fail")
	}
	// Empty reference collection.
	if err := coord.Load(collection.FromTrees(nil), ts, false); err == nil {
		t.Error("empty reference should fail")
	}
	_ = trees
}

func TestWorkerDirectErrors(t *testing.T) {
	w := &Worker{}
	var lr LoadReply
	// AB|CD over {A,B,C,D}: bit 0 (A) on the 0 side.
	split := []uint64{0b1100}
	if err := w.Load(LoadArgs{Words: split, Ends: []int{1}, Lengths: []float64{0}, HasLength: []uint64{0}}, &lr); err == nil {
		t.Error("Load before Init should fail")
	}
	var qr QueryReply
	if err := w.Query(QueryArgs{Words: split, Ends: []int{1}}, &qr); err == nil {
		t.Error("Query before Load should fail")
	}
	if err := w.Init(InitArgs{TaxaNames: []string{"A", "B", "C", "D"}}, &lr); err == nil {
		t.Error("Init without the coordinator's protocol should fail")
	}
	if err := w.Init(InitArgs{TaxaNames: []string{"A", "B", "C", "D"}, Protocol: Protocol}, &lr); err != nil {
		t.Fatal(err)
	}
	// The complement orientation puts the anchor taxon A on the 1 side.
	if err := w.Load(LoadArgs{Words: []uint64{0b0011}, Ends: []int{1}, Lengths: []float64{0}, HasLength: []uint64{0}}, &lr); err == nil {
		t.Error("non-canonical reference split should fail")
	}
	if err := w.Load(LoadArgs{Words: split, Ends: []int{1}}, &lr); err == nil {
		t.Error("reference chunk without lengths should fail")
	}
	if err := w.Init(InitArgs{TaxaNames: []string{"A", "A"}, Protocol: Protocol}, &lr); err == nil {
		t.Error("duplicate taxa should fail")
	}
}

func TestWorkerServesOverRealTCP(t *testing.T) {
	// Exercise the actual wire path end to end with one worker.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go Serve(l)

	trees, ts := testCollection(21, 10, 25)
	coord, err := Dial([]string{l.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	res, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:5]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 5 {
		t.Fatalf("results = %d", len(res.Results))
	}
}
