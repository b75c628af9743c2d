package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// avgOf is the fake answer for query idx.
func avgOf(idx int) float64 { return float64(idx)*1.25 + 0.1 }

// fakeQuery answers n queries in index order, honoring skip and
// recording each result, and stops with core.ErrCanceled once it has
// computed stopAfter results (stopAfter < 0 runs to the end).
func fakeQuery(n, stopAfter int) func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
	return func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		var out []core.Result
		for idx := 0; idx < n; idx++ {
			if skip != nil && skip(idx) {
				continue
			}
			if len(out) == stopAfter {
				return out, core.ErrCanceled
			}
			r := core.Result{Index: idx, AvgRF: avgOf(idx)}
			if record != nil {
				record(r)
			}
			out = append(out, r)
		}
		return out, nil
	}
}

// indexes lists the results' query indexes, checking each answer.
func indexes(t *testing.T, res []core.Result) []int {
	t.Helper()
	idx := make([]int, len(res))
	for i, r := range res {
		if r.AvgRF != avgOf(r.Index) {
			t.Fatalf("query %d: avg %v, want %v", r.Index, r.AvgRF, avgOf(r.Index))
		}
		idx[i] = r.Index
	}
	return idx
}

func testRun(t *testing.T) Run {
	return Run{
		Path:     filepath.Join(t.TempDir(), "run.ckpt"),
		Interval: 1,
		Header:   Header{Fingerprint: 0xfeed, Config: "variant=plain"},
	}
}

func TestRunWithoutPathCallsQueryOnce(t *testing.T) {
	calls := 0
	want := errors.New("boom")
	res, err := Run{}.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		calls++
		if skip != nil || record != nil {
			t.Error("no-checkpoint run passed a skip or record hook")
		}
		return []core.Result{{Index: 7}}, want
	})
	if calls != 1 || err != want || len(res) != 1 || res[0].Index != 7 {
		t.Fatalf("got %d calls, %v, %v; want the closure's own return, once", calls, res, err)
	}
}

func TestRunRestoredRecordBeyondQueryCount(t *testing.T) {
	run := testRun(t)
	w, err := Create(run.Path, run.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 1, 9} { // 9 is past a 4-query file
		if err := w.Record(idx, avgOf(idx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run.Resume = true
	res, err := run.Query(fakeQuery(4, -1))
	if err == nil || !strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("stale record folded in: results %v, err %v", res, err)
	}
}

func TestRunRecordErrorReturnedAfterFlush(t *testing.T) {
	defer faultinject.Disarm()
	run := testRun(t)
	const n = 4
	query := fakeQuery(n, -1)
	_, err := run.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		// The flush behind the last record fails; the record stays
		// buffered for the run's own flush.
		return query(skip, func(r core.Result) {
			if r.Index == n-1 {
				faultinject.Arm(faultinject.Plan{
					Point: faultinject.PointCheckpointWrite, Kind: faultinject.KindError,
				})
			}
			record(r)
		})
	})
	var fault *faultinject.Error
	if !errors.As(err, &fault) {
		t.Fatalf("record error not returned: %v", err)
	}
	loaded, err := Load(run.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Done) != n {
		t.Fatalf("checkpoint holds %d records after the run, want %d", len(loaded.Done), n)
	}
}

func TestRunCancelThenResume(t *testing.T) {
	const n = 6
	run := testRun(t)
	res, err := run.Query(fakeQuery(n, 2))
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if got := fmt.Sprint(indexes(t, res)); got != "[0 1]" {
		t.Fatalf("canceled run returned queries %s, want [0 1]", got)
	}

	// A resumed run canceled by its context still returns every result so
	// far, restored ones included, in index order.
	run.Resume = true
	restored := -1
	run.OnResume = func(done int) { restored = done }
	query := fakeQuery(n, 1)
	res, err = run.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		res, err := query(skip, record)
		if err != nil {
			err = fmt.Errorf("rpc: %w", context.Canceled)
		}
		return res, err
	})
	if !errors.Is(err, context.Canceled) || restored != 2 {
		t.Fatalf("resumed run: err %v, restored %d; want context.Canceled, 2", err, restored)
	}
	if got := fmt.Sprint(indexes(t, res)); got != "[0 1 2]" {
		t.Fatalf("resumed canceled run returned queries %s, want [0 1 2]", got)
	}

	res, err = run.Query(fakeQuery(n, -1))
	if err != nil || restored != 3 {
		t.Fatalf("final resume: err %v, restored %d; want nil, 3", err, restored)
	}
	if got := fmt.Sprint(indexes(t, res)); got != "[0 1 2 3 4 5]" {
		t.Fatalf("final resume returned queries %s, want all %d", got, n)
	}
}

func TestRunQueryErrorReturnsNoResults(t *testing.T) {
	run := testRun(t)
	want := errors.New("bad query tree")
	res, err := run.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		record(core.Result{Index: 0, AvgRF: avgOf(0)})
		return []core.Result{{Index: 0, AvgRF: avgOf(0)}}, want
	})
	if err != want || res != nil {
		t.Fatalf("got %v, %v; want nil, %v", res, err, want)
	}
}
