package distrib

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// End-to-end fault tolerance: the acceptance contract is that killing one
// worker mid-AverageRF yields (a) the correct full result via shard
// re-dispatch in fail-fast mode and (b) a coverage-annotated partial
// result in -partial-results mode — and never a hang.

// chunkOf encodes trees as one Load chunk, as the coordinator does.
func chunkOf(t *testing.T, ts *taxa.Set, trees []*tree.Tree, seq uint64) LoadArgs {
	t.Helper()
	ex := bipart.NewExtractor(ts)
	args := LoadArgs{Seq: seq}
	for _, tr := range trees {
		bs, err := ex.Extract(tr)
		if err != nil {
			t.Fatal(err)
		}
		args.add(bs)
	}
	return args
}

// TestFailoverFullResultAfterWorkerDeath kills one of two workers between
// query batches and asserts the next batch still returns the exact
// single-node answer: the orphaned shard is adopted by the survivor from
// its post-load checkpoint.
func TestFailoverFullResultAfterWorkerDeath(t *testing.T) {
	trees, ts := testCollection(41, 16, 30)
	queries := trees[:8]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	kw := startKillableWorker(t)
	healthy := startWorkers(t, 1)
	coord, err := Dial([]string{kw.addr(), healthy[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 5 // 6 chunks round-robin: 15 trees per shard
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	if got := coord.slot(0).trees; got != 15 {
		t.Fatalf("shard 0 holds %d trees, want 15", got)
	}

	kw.kill()
	failoversBefore := shardFailovers(kw.addr()).Value()
	var out *Outcome
	err = runWithTimeout(t, "AverageRF after kill", func() error {
		var err error
		out, err = coord.AverageRFContext(nil, collection.FromTrees(queries))
		return err
	})
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}

	// Exactness: the re-homed cluster answers like a single node.
	if len(out.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(want))
	}
	for i := range want {
		if math.Abs(out.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: failover %v vs local %v", i, out.Results[i].AvgRF, want[i].AvgRF)
		}
	}
	// Annotations: full coverage, one failover, the dead worker named.
	if out.Partial || out.Coverage != 1 {
		t.Errorf("fail-fast outcome partial=%v coverage=%v, want full", out.Partial, out.Coverage)
	}
	if out.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", out.Failovers)
	}
	if len(out.DeadWorkers) != 1 || out.DeadWorkers[0] != kw.addr() {
		t.Errorf("dead workers = %v, want [%s]", out.DeadWorkers, kw.addr())
	}
	// Observability: counter and state gauge moved.
	if got := shardFailovers(kw.addr()).Value() - failoversBefore; got != 1 {
		t.Errorf("failover counter delta = %d, want 1", got)
	}
	if got := workerStateGauge(kw.addr()).Value(); got != float64(StateDead) {
		t.Errorf("worker state gauge = %v, want %v", got, float64(StateDead))
	}
	if got := coord.AliveWorkers(); got != 1 {
		t.Errorf("alive workers = %d, want 1", got)
	}
	// The survivor's shard now holds the whole collection.
	data, err := coord.SnapshotWorker(1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumTrees() != len(trees) {
		t.Errorf("survivor holds %d trees after adoption, want %d", merged.NumTrees(), len(trees))
	}
	// And a later batch keeps answering exactly, without further failovers.
	out2, err := coord.AverageRFContext(nil, collection.FromTrees(queries))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Failovers != 0 || out2.Partial {
		t.Errorf("second batch failovers=%d partial=%v, want a quiet full batch", out2.Failovers, out2.Partial)
	}
	for i := range want {
		if math.Abs(out2.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("second batch query %d: %v vs local %v", i, out2.Results[i].AvgRF, want[i].AvgRF)
		}
	}
}

// TestPartialResultsCoverage kills one of two workers in -partial-results
// mode and checks the degraded answer is exactly the average over the
// surviving shard's trees, with coverage = survivors/total.
func TestPartialResultsCoverage(t *testing.T) {
	trees, ts := testCollection(43, 14, 20)
	queries := trees[:4]

	kw := startKillableWorker(t)
	healthy := startWorkers(t, 1)
	coord, err := Dial([]string{kw.addr(), healthy[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.PartialResults = true
	// 4 chunks of 5 round-robin: killable gets trees 0-4 and 10-14, the
	// survivor trees 5-9 and 15-19.
	coord.ChunkSize = 5
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}

	// The ground truth for the degraded answer: a local BFHRF over exactly
	// the surviving shard's trees.
	survivors := append(append([]*tree.Tree{}, trees[5:10]...), trees[15:20]...)
	local, err := core.BuildDefault(collection.FromTrees(survivors), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	kw.kill()
	degradedBefore := degradedQueries().Value()
	var out *Outcome
	err = runWithTimeout(t, "degraded AverageRF", func() error {
		var err error
		out, err = coord.AverageRFContext(nil, collection.FromTrees(queries))
		return err
	})
	if err != nil {
		t.Fatalf("partial-results query: %v", err)
	}

	if !out.Partial {
		t.Error("outcome not marked partial")
	}
	if math.Abs(out.Coverage-0.5) > 1e-9 {
		t.Errorf("coverage = %v, want 0.5 (10 of 20 trees answered)", out.Coverage)
	}
	if len(out.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(want))
	}
	for i := range want {
		if math.Abs(out.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: degraded %v vs local-over-survivors %v",
				i, out.Results[i].AvgRF, want[i].AvgRF)
		}
	}
	if len(out.DeadWorkers) != 1 || out.DeadWorkers[0] != kw.addr() {
		t.Errorf("dead workers = %v, want [%s]", out.DeadWorkers, kw.addr())
	}
	if got := degradedQueries().Value() - degradedBefore; got != 1 {
		t.Errorf("degraded-batch counter delta = %d, want 1", got)
	}
	// Partial mode never re-dispatches the shard.
	if out.Failovers != 0 {
		t.Errorf("failovers = %d in partial mode, want 0", out.Failovers)
	}
}

// TestPartialResultsAllShardsLost: when every shard is gone even partial
// mode must error, not fabricate an answer from zero reference trees.
func TestPartialResultsAllShardsLost(t *testing.T) {
	kw := startKillableWorker(t)
	coord, err := Dial([]string{kw.addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.PartialResults = true
	trees, ts := testCollection(3, 8, 10)
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	kw.kill()
	err = runWithTimeout(t, "AverageRF with no shards", func() error {
		_, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:2]))
		return err
	})
	if err == nil {
		t.Fatal("losing every shard should fail even in partial-results mode")
	}
}

// TestRetryExhaustionSurfacesError pins the retry loop's error contract:
// after MaxAttempts transient failures the caller sees both the attempt
// budget and the underlying transport error, and the retry counter moved.
func TestRetryExhaustionSurfacesError(t *testing.T) {
	kw := startKillableWorker(t)
	coord, err := Dial([]string{kw.addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.NoFailover = true
	coord.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1}
	trees, ts := testCollection(5, 8, 12)
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}

	kw.kill()
	retriesBefore := rpcRetries("Query", kw.addr()).Value()
	err = runWithTimeout(t, "AverageRF with exhausted retries", func() error {
		_, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:2]))
		return err
	})
	if err == nil {
		t.Fatal("query should fail once the retry budget is exhausted")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error should name the attempt budget, got: %v", err)
	}
	// The transport failure stays inspectable through the wrapping.
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !errors.Is(err, rpc.ErrShutdown) {
		var netErr net.Error
		if !errors.As(err, &netErr) {
			t.Errorf("error should wrap the underlying transport failure, got: %v", err)
		}
	}
	if got := rpcRetries("Query", kw.addr()).Value() - retriesBefore; got != 2 {
		t.Errorf("retry counter delta = %d, want 2 (attempts 2 and 3)", got)
	}
}

// TestHealthStateMachine drives recordHealth directly: healthy → suspect
// on the first failure, dead at DeadAfter consecutive failures, and a
// success before the threshold resets to healthy.
func TestHealthStateMachine(t *testing.T) {
	addrs := startWorkers(t, 1)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.DeadAfter = 3
	addr := addrs[0]
	state := func() WorkerState { return coord.WorkerStates()[addr] }

	if got := state(); got != StateHealthy {
		t.Fatalf("initial state = %v, want healthy", got)
	}
	coord.recordHealth(0, io.EOF)
	if got := state(); got != StateSuspect {
		t.Errorf("after 1 failure = %v, want suspect", got)
	}
	if got := workerStateGauge(addr).Value(); got != float64(StateSuspect) {
		t.Errorf("gauge after 1 failure = %v, want %v", got, float64(StateSuspect))
	}
	coord.recordHealth(0, nil)
	if got := state(); got != StateHealthy {
		t.Errorf("after recovery = %v, want healthy", got)
	}
	for k := 0; k < 3; k++ {
		coord.recordHealth(0, io.EOF)
	}
	if got := state(); got != StateDead {
		t.Errorf("after %d failures = %v, want dead", coord.DeadAfter, got)
	}
	if got := workerStateGauge(addr).Value(); got != float64(StateDead) {
		t.Errorf("gauge after death = %v, want %v", got, float64(StateDead))
	}
	// Dead is terminal: a late success must not resurrect the worker.
	coord.recordHealth(0, nil)
	if got := state(); got != StateDead {
		t.Errorf("dead worker resurrected to %v", got)
	}
}

// TestHealthLoopDetectsDeath runs the real background loop against a
// killable worker: after the kill the loop must walk the worker to dead,
// and the next fail-fast query must recover the shard and answer exactly.
func TestHealthLoopDetectsDeath(t *testing.T) {
	trees, ts := testCollection(47, 12, 24)
	queries := trees[:5]
	local, err := core.BuildDefault(collection.FromTrees(trees), ts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.AverageRF(collection.FromTrees(queries), core.QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}

	kw := startKillableWorker(t)
	healthy := startWorkers(t, 1)
	coord, err := Dial([]string{kw.addr(), healthy[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 4
	coord.DeadAfter = 2
	coord.RPCTimeout = 2 * time.Second
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}

	stop := coord.StartHealthLoop(10 * time.Millisecond)
	defer stop()
	kw.kill()
	deadline := time.Now().Add(15 * time.Second)
	for coord.WorkerStates()[kw.addr()] != StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("health loop never declared the killed worker dead (state=%v)",
				coord.WorkerStates()[kw.addr()])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The loop orphaned the shard; the next query re-homes it silently.
	out, err := coord.AverageRFContext(nil, collection.FromTrees(queries))
	if err != nil {
		t.Fatalf("query after health-loop death: %v", err)
	}
	if out.Failovers != 1 || out.Partial {
		t.Errorf("failovers=%d partial=%v, want one failover and a full result", out.Failovers, out.Partial)
	}
	for i := range want {
		if math.Abs(out.Results[i].AvgRF-want[i].AvgRF) > 1e-9 {
			t.Errorf("query %d: %v vs local %v", i, out.Results[i].AvgRF, want[i].AvgRF)
		}
	}
}

// TestHealthLoopRaceHammer runs the health loop at full tilt against
// concurrent queries and state reads; its assertions are the race
// detector's (ci.sh runs this package under -race).
func TestHealthLoopRaceHammer(t *testing.T) {
	trees, ts := testCollection(53, 10, 20)
	addrs := startWorkers(t, 2)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	stop := coord.StartHealthLoop(time.Millisecond)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:3])); err != nil {
					t.Errorf("query under health hammer: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			coord.WorkerStates()
			coord.AliveWorkers()
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(done)
	wg.Wait()
	stop()
}

// TestAdoptIdempotent: a retried Adopt of the same shard must not
// double-count the orphan's trees.
func TestAdoptIdempotent(t *testing.T) {
	trees, ts := testCollection(59, 12, 20)
	w := &Worker{}
	var lr LoadReply
	if err := w.Init(InitArgs{TaxaNames: ts.Names(), Protocol: Protocol}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(chunkOf(t, ts, trees[:10], 1), &lr); err != nil {
		t.Fatal(err)
	}
	orphan, err := core.Build(collection.FromTrees(trees[10:]), ts, core.BuildOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := EncodeSnapshot(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Adopt(AdoptArgs{ShardID: 7, Data: snap}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ShardTrees != 20 {
		t.Fatalf("after adoption shard holds %d trees, want 20", lr.ShardTrees)
	}
	// Redelivery (the coordinator retried after losing only the reply).
	if err := w.Adopt(AdoptArgs{ShardID: 7, Data: snap}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ShardTrees != 20 {
		t.Errorf("retried adoption double-counted: %d trees, want 20", lr.ShardTrees)
	}
}

// TestLoadSeqIdempotent: a retried Load chunk must not double-count.
func TestLoadSeqIdempotent(t *testing.T) {
	trees, ts := testCollection(61, 10, 10)
	w := &Worker{}
	var lr LoadReply
	if err := w.Init(InitArgs{TaxaNames: ts.Names(), Protocol: Protocol}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(chunkOf(t, ts, trees[:5], 1), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ShardTrees != 5 {
		t.Fatalf("shard holds %d trees, want 5", lr.ShardTrees)
	}
	if err := w.Load(chunkOf(t, ts, trees[:5], 1), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ShardTrees != 5 {
		t.Errorf("duplicate chunk double-counted: %d trees, want 5", lr.ShardTrees)
	}
	if err := w.Load(chunkOf(t, ts, trees[5:], 2), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ShardTrees != 10 {
		t.Errorf("next chunk not folded: %d trees, want 10", lr.ShardTrees)
	}
}
