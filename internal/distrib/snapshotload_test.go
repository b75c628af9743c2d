package distrib

import (
	"bytes"
	"context"
	"math"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bfhsnap"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Snapshot loads restore workers concurrently and keep each one-part
// worker's part file as its failover checkpoint instead of asking the
// worker to re-encode the shard it just loaded.

// savedEpoch loads trees onto k fresh workers (ChunkSize 5, so every
// worker holds trees when len(trees) >= 5k) and saves them as a
// worker-layout epoch of k parts. It returns the store directory.
func savedEpoch(t *testing.T, trees []*tree.Tree, ts *taxa.Set, k int) string {
	t.Helper()
	coord, err := Dial(startWorkers(t, k))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 5
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := coord.SaveSnapshotsContext(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// partPaths lists the part files of dir's current epoch, in part order.
func partPaths(t *testing.T, dir string) []string {
	t.Helper()
	store, err := bfhsnap.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Manifest(store.Current())
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(man.Parts))
	for p, part := range man.Parts {
		paths[p] = store.PartPath(store.Current(), part)
	}
	return paths
}

// workerSnapshots reads the worker-side Snapshot RPC count.
func workerSnapshots() uint64 {
	return rpcLatency(obs.L("side", sideWorker), obs.L("method", "Snapshot")).Count()
}

// TestSnapshotLoadCheckpointsFromPartFiles: a worker restored from one
// part is checkpointed with that part's bytes, which equal what the
// worker itself would send, and no Snapshot RPC is made for it. A worker
// that merged a second part is still snapshotted over RPC.
func TestSnapshotLoadCheckpointsFromPartFiles(t *testing.T) {
	trees, ts := testCollection(53, 16, 30)
	for _, c := range []struct {
		parts, rpcs int
		fromFile    []bool
	}{
		{parts: 2, rpcs: 0, fromFile: []bool{true, true}},
		{parts: 3, rpcs: 1, fromFile: []bool{false, true}},
	} {
		dir := savedEpoch(t, trees, ts, c.parts)
		paths := partPaths(t, dir)
		coord, err := Dial(startWorkers(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		before := workerSnapshots()
		if err := coord.LoadSnapshotContext(context.Background(), dir); err != nil {
			t.Fatalf("%d parts: %v", c.parts, err)
		}
		if got := workerSnapshots() - before; got != uint64(c.rpcs) {
			t.Errorf("%d parts on 2 workers: %d worker Snapshot RPCs, want %d", c.parts, got, c.rpcs)
		}
		for i, want := range c.fromFile {
			stored := coord.slot(i).snapshot
			if want {
				part, err := os.ReadFile(paths[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stored, part) {
					t.Errorf("%d parts: worker %d checkpoint is not its part file", c.parts, i)
				}
			}
			live, err := coord.SnapshotWorker(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stored, live) {
				t.Errorf("%d parts: worker %d checkpoint (%d bytes) differs from its Snapshot (%d bytes)",
					c.parts, i, len(stored), len(live))
			}
		}
		coord.Close()
	}
}

// TestFailoverAfterSnapshotLoad kills each worker of a cluster restored
// from 2 and from 3 parts in turn: the survivor adopts the dead worker's
// checkpoint — a part file, or an RPC snapshot of a merged shard — and
// answers bit for bit like a single-node build.
func TestFailoverAfterSnapshotLoad(t *testing.T) {
	trees, ts := testCollection(59, 16, 30)
	queries := trees[:10]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 3} {
		dir := savedEpoch(t, trees, ts, parts)
		for victim := 0; victim < 2; victim++ {
			kws := []*killableWorker{startKillableWorker(t), startKillableWorker(t)}
			coord, err := Dial([]string{kws[0].addr(), kws[1].addr()})
			if err != nil {
				t.Fatal(err)
			}
			if err := coord.LoadSnapshotContext(context.Background(), dir); err != nil {
				t.Fatalf("%d parts: %v", parts, err)
			}
			kws[victim].kill()
			var out *Outcome
			err = runWithTimeout(t, "AverageRF after kill", func() error {
				var err error
				out, err = coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
				return err
			})
			if err != nil {
				t.Fatalf("%d parts, worker %d killed: %v", parts, victim, err)
			}
			if out.Failovers != 1 || out.Partial {
				t.Errorf("%d parts, worker %d killed: failovers=%d partial=%v, want one full failover",
					parts, victim, out.Failovers, out.Partial)
			}
			if len(out.Results) != len(want) {
				t.Fatalf("%d parts, worker %d killed: %d results, want %d", parts, victim, len(out.Results), len(want))
			}
			for i := range want {
				if math.Float64bits(out.Results[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
					t.Errorf("%d parts, worker %d killed: query %d = %v, single node %v",
						parts, victim, i, out.Results[i].AvgRF, want[i].AvgRF)
				}
			}
			coord.Close()
		}
	}
}

// gatedWorker is a Worker whose Restore waits for gate to close, so a
// test can hold one worker's restore back while another fails.
type gatedWorker struct {
	*Worker
	gate chan struct{}
}

func (g *gatedWorker) Restore(args RestoreArgs, reply *LoadReply) error {
	<-g.gate
	return g.Worker.Restore(args, reply)
}

func startGatedWorker(t *testing.T) (*gatedWorker, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	g := &gatedWorker{Worker: &Worker{}, gate: make(chan struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName("BFHRF", g); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return g, l.Addr().String()
}

// TestSnapshotLoadReportsEarliestBadPart removes part files from a
// 4-part epoch loaded onto 2 workers (worker 0 takes parts 0 and 2,
// worker 1 parts 1 and 3). Worker 1's restore is held back, so its
// failure comes last in time; the load still names the lowest-numbered
// bad part, and it returns only once both workers are done.
func TestSnapshotLoadReportsEarliestBadPart(t *testing.T) {
	trees, ts := testCollection(61, 16, 40)
	dir := savedEpoch(t, trees, ts, 4)
	paths := partPaths(t, dir)
	path := func(p int) string { return paths[p] }
	name := func(p int) string { return filepath.Base(paths[p]) }
	for _, c := range []struct {
		removed []int
		want    int
	}{
		{removed: []int{2}, want: 2},
		{removed: []int{1, 2}, want: 1},
		{removed: []int{3}, want: 3},
		{removed: []int{2, 3}, want: 2},
	} {
		for _, p := range c.removed {
			if err := os.Rename(path(p), path(p)+".gone"); err != nil {
				t.Fatal(err)
			}
		}
		g, addr := startGatedWorker(t)
		coord, err := Dial(append(startWorkers(t, 1), addr))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- coord.LoadSnapshotContext(context.Background(), dir) }()
		select {
		case err := <-done:
			t.Fatalf("removed %v: load returned while worker 1 was still restoring: %v", c.removed, err)
		case <-time.After(100 * time.Millisecond):
		}
		close(g.gate)
		err = runWithTimeout(t, "LoadSnapshotContext", func() error { return <-done })
		if err == nil {
			t.Fatalf("removed %v: load succeeded", c.removed)
		}
		if !strings.Contains(err.Error(), name(c.want)) {
			t.Errorf("removed %v: error %q does not name %s", c.removed, err, name(c.want))
		}
		for _, p := range c.removed {
			if p != c.want && strings.Contains(err.Error(), name(p)) {
				t.Errorf("removed %v: error %q names the later part %s", c.removed, err, name(p))
			}
		}
		// Worker 1 finished what it could before the load returned: its
		// shard holds part 1, and part 3 too when that file was there.
		g.mu.Lock()
		held := 0
		if g.hash != nil {
			held = g.hash.NumTrees()
		}
		g.mu.Unlock()
		wantHeld := 0
		if !slices.Contains(c.removed, 1) {
			wantHeld = 10
			if !slices.Contains(c.removed, 3) {
				wantHeld = 20
			}
		}
		if held != wantHeld {
			t.Errorf("removed %v: worker 1 holds %d trees when the load returns, want %d", c.removed, held, wantHeld)
		}
		coord.Close()
		for _, p := range c.removed {
			if err := os.Rename(path(p)+".gone", path(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
