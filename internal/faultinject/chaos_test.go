package faultinject_test

// The chaos suite: seeded random fault schedules are armed against full
// end-to-end runs — single-node resumable batches and distributed
// scatter-gather — and every schedule must uphold three invariants:
//
//  1. no hang: each run finishes within a hard deadline;
//  2. no wrong answer: a run that reports success is bit-identical to the
//     fault-free run;
//  3. no silent loss or double count: after a faulted run, resuming from
//     its checkpoint completes to the exact fault-free result set.
//
// Schedules are derived deterministically from the seed (see
// faultinject.Schedule), so any failure names a spec string that replays
// the exact fault sequence.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/collection"
	"repro/internal/distrib"
	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"

	"math/rand"
	"net"
)

// chaosDeadline bounds one schedule's run; well above the worst case
// (a few ms of injected delays plus retry backoff) and far below a hang.
const chaosDeadline = 30 * time.Second

// chaosTrees generates a deterministic collection and serializes it.
func chaosTrees(seed int64, n, r int) ([]*tree.Tree, *taxa.Set, string) {
	ts := taxa.Generate(n)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*tree.Tree, r)
	var sb []byte
	for i := range trees {
		trees[i] = simphy.RandomBinary(ts, rng)
		sb = append(sb, newick.String(trees[i], newick.WriteOptions{BranchLengths: true})...)
		sb = append(sb, '\n')
	}
	return trees, ts, string(sb)
}

// runWithDeadline enforces the no-hang invariant.
func runWithDeadline(t *testing.T, spec string, f func() error) error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(chaosDeadline):
		t.Fatalf("schedule %q hung (no result after %v)", spec, chaosDeadline)
		return nil
	}
}

func sameResults(t *testing.T, spec string, got, want []repro.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("schedule %q: %d results, want %d", spec, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %q: result %d = %+v, want %+v (wrong answer under faults)",
				spec, i, got[i], want[i])
		}
	}
}

// TestChaosSingleNode sweeps seeded schedules over the ingest, parse and
// checkpoint fault points of a resumable single-node batch run.
func TestChaosSingleNode(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	_, _, refs := chaosTrees(101, 10, 12)
	_, _, queries := chaosTrees(102, 10, 8)
	rp := filepath.Join(dir, "r.nwk")
	qp := filepath.Join(dir, "q.nwk")
	if err := os.WriteFile(rp, []byte(refs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(qp, []byte(queries), 0o644); err != nil {
		t.Fatal(err)
	}

	baseline, err := repro.AverageRFFiles(qp, rp, repro.Config{})
	if err != nil {
		t.Fatal(err)
	}

	points := []string{
		faultinject.PointIOOpen,
		faultinject.PointIORead,
		faultinject.PointParseTree,
		faultinject.PointCheckpointWrite,
		faultinject.PointCheckpointRead,
		faultinject.PointOutputWrite,
	}
	const schedules = 40
	errored := 0
	for seed := int64(0); seed < schedules; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			plans := faultinject.Schedule(seed, points, 3, 25)
			spec := faultinject.SpecOf(plans)
			ck := filepath.Join(t.TempDir(), "run.ckpt")

			var results []repro.Result
			faultinject.Arm(plans...)
			err := runWithDeadline(t, spec, func() error {
				var err error
				results, err = repro.AverageRFFilesResumable(qp, rp, repro.Config{},
					repro.RunOptions{CheckpointPath: ck, CheckpointInterval: 1})
				return err
			})
			faultinject.Disarm()
			if err == nil {
				sameResults(t, spec, results, baseline)
			} else {
				errored++
			}

			// Whatever the fault did, resuming without faults must complete
			// to the exact fault-free result set: nothing lost from the
			// checkpoint, nothing double-counted, nothing corrupt folded in.
			final, err := repro.AverageRFFilesResumable(qp, rp, repro.Config{},
				repro.RunOptions{CheckpointPath: ck, Resume: true})
			if err != nil {
				t.Fatalf("schedule %q: clean resume failed: %v", spec, err)
			}
			sameResults(t, spec, final, baseline)
		})
	}
	// Vacuity guard: the schedules are deterministic, and a healthy sweep
	// must include runs where an injected fault actually surfaced as an
	// error (and was then recovered via resume). If this drops to zero the
	// fault points have silently stopped firing.
	t.Logf("%d/%d schedules surfaced an error", errored, schedules)
	if errored < 5 {
		t.Fatalf("only %d/%d schedules surfaced an error — fault injection looks vacuous", errored, schedules)
	}
}

// TestChaosDistributed sweeps seeded rpc.send schedules over a full
// two-worker scatter-gather run with retries and shard failover enabled.
func TestChaosDistributed(t *testing.T) {
	defer faultinject.Disarm()
	trees, ts, _ := chaosTrees(201, 12, 30)
	queries := trees[:10]

	startWorkers := func(t *testing.T, k int) []string {
		t.Helper()
		addrs := make([]string, k)
		for i := 0; i < k; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			w := &distrib.Worker{}
			go distrib.ServeWorker(l, w) //nolint:errcheck — ends when l closes
			addrs[i] = l.Addr().String()
		}
		return addrs
	}
	newCoord := func(t *testing.T) *distrib.Coordinator {
		t.Helper()
		coord, err := distrib.Dial(startWorkers(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { coord.Close() })
		coord.ChunkSize = 8
		coord.BatchSize = 4
		coord.RPCTimeout = 5 * time.Second
		coord.Retry = distrib.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
		return coord
	}
	runOnce := func(t *testing.T, spec string) ([]repro.Result, error) {
		t.Helper()
		coord := newCoord(t)
		var out []repro.Result
		err := runWithDeadline(t, spec, func() error {
			if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
				return err
			}
			res, err := coord.AverageRFContext(context.Background(), collection.FromTrees(queries))
			if err != nil {
				return err
			}
			for _, r := range res.Results {
				out = append(out, repro.Result{Index: r.Index, AvgRF: r.AvgRF})
			}
			return nil
		})
		return out, err
	}

	baseline, err := runOnce(t, "fault-free")
	if err != nil {
		t.Fatal(err)
	}

	const schedules = 16
	survived, errored := 0, 0
	for seed := int64(1000); seed < 1000+schedules; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plans := faultinject.Schedule(seed, []string{faultinject.PointRPCSend}, 3, 40)
			spec := faultinject.SpecOf(plans)
			faultinject.Arm(plans...)
			results, err := runOnce(t, spec)
			faultinject.Disarm()
			if err != nil {
				errored++
				return // the fault surfaced as an error; that is a correct outcome
			}
			survived++
			sameResults(t, spec, results, baseline)
		})
	}
	// Vacuity guard: with retries and failover most schedules should
	// complete with correct answers, and both outcomes must be represented.
	t.Logf("%d/%d schedules survived faults with exact answers, %d errored",
		survived, schedules, errored)
	if survived == 0 {
		t.Fatal("no schedule survived rpc faults — retry/failover look broken")
	}
}
