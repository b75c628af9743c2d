package distrib

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestCallerDeadlineDoesNotKillWorkers pins the error classification in
// queryBatch: context.DeadlineExceeded satisfies net.Error (Timeout()
// returns true), so before the explicit context case was added, a
// caller-imposed per-request deadline — exactly what the HTTP query
// service propagates — took the IsTransient path and marked a healthy
// worker dead. The coordinator must surface the deadline as an error
// and leave the cluster intact for the next query.
func TestCallerDeadlineDoesNotKillWorkers(t *testing.T) {
	defer faultinject.Disarm()
	trees, ts := testCollection(42, 16, 60)
	queries := trees[:10]
	addrs := startWorkers(t, 2)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	alive := coord.AliveWorkers()

	// Delay every query RPC send long enough that a short caller deadline
	// always expires mid-call.
	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointRPCSend, Kind: faultinject.KindDelay,
		Hit: 1, Times: -1, Delay: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = coord.AverageRFContext(ctx, collection.FromTrees(queries))
	if err == nil {
		t.Fatal("query with an expired deadline succeeded")
	}
	if got := coord.AliveWorkers(); got != alive {
		t.Fatalf("caller deadline killed workers: alive %d -> %d", alive, got)
	}

	// With the fault cleared, the same cluster answers the next query.
	faultinject.Disarm()
	out, err := coord.AverageRFOpts(context.Background(), collection.FromTrees(queries), QueryRunOptions{})
	if err != nil {
		t.Fatalf("query after deadline recovery: %v", err)
	}
	if len(out.Results) != len(queries) || out.Coverage != 1 {
		t.Fatalf("recovery query: %d results, coverage %v", len(out.Results), out.Coverage)
	}
	if got := coord.AliveWorkers(); got != alive {
		t.Fatalf("workers lost after recovery: alive %d -> %d", alive, got)
	}
}

// TestCallerCancelDoesNotKillWorkers mirrors the deadline case for an
// explicit cancellation (a client hanging up mid-request).
func TestCallerCancelDoesNotKillWorkers(t *testing.T) {
	defer faultinject.Disarm()
	trees, ts := testCollection(43, 16, 60)
	queries := trees[:10]
	addrs := startWorkers(t, 2)
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	alive := coord.AliveWorkers()

	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointRPCSend, Kind: faultinject.KindDelay,
		Hit: 1, Times: -1, Delay: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = coord.AverageRFContext(ctx, collection.FromTrees(queries))
	if err == nil {
		t.Fatal("canceled query succeeded")
	}
	if got := coord.AliveWorkers(); got != alive {
		t.Fatalf("caller cancel killed workers: alive %d -> %d", alive, got)
	}
}

// TestSoftDrainStopsAtBatchBoundary: closing QueryRunOptions.Cancel (bfhrfd's
// first signal) lets the batch in flight fold, stops the feed before the
// next one, and returns the folded results, index-sorted, with an error
// wrapping context.Canceled — without counting a worker dead.
func TestSoftDrainStopsAtBatchBoundary(t *testing.T) {
	trees, ts := testCollection(44, 16, 60)
	queries := collection.FromTrees(trees[:10])
	coord, err := Dial(startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.BatchSize = 3
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	full, err := coord.AverageRFContext(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}

	soft := make(chan struct{})
	closed := false
	out, err := coord.AverageRFOpts(context.Background(), queries, QueryRunOptions{
		OnResult: func(core.Result) {
			if !closed {
				closed = true
				close(soft)
			}
		},
		Cancel: soft,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drained run returned %v, want context.Canceled", err)
	}
	if len(out.Results) != coord.BatchSize {
		t.Fatalf("drained run returned %d results, want the first batch of %d", len(out.Results), coord.BatchSize)
	}
	for i, r := range out.Results {
		if r != full.Results[i] {
			t.Errorf("result %d = %+v, want %+v", i, r, full.Results[i])
		}
	}
	if alive := coord.AliveWorkers(); alive != 2 || len(out.DeadWorkers) != 0 {
		t.Fatalf("soft drain marked workers dead: alive %d, dead %v", alive, out.DeadWorkers)
	}
}
