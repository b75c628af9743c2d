package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Run is one checkpointed query run: the single place that creates or
// resumes a checkpoint, skips the queries it already holds, records
// each new result, flushes, and merges restored and fresh results into
// one contiguous set. bfhrf (through the root package) and the bfhrfd
// coordinator both answer their query files through it.
type Run struct {
	// Path is the checkpoint file. Empty disables checkpointing: Query
	// then calls its closure once, with no skip and no record hook.
	Path string
	// Resume loads Path (which must match Header) and skips the queries
	// it holds. Without Resume an existing checkpoint is overwritten.
	Resume bool
	// Interval is how many records accumulate between flush+fsync
	// cycles (0 = DefaultInterval).
	Interval int
	// Header pins the checkpoint to the reference collection and the
	// result-affecting configuration.
	Header Header
	// OnResume, if set, is called once after a successful resume with
	// the number of results restored from the checkpoint.
	OnResume func(done int)
}

// Query runs query under the checkpoint. query must skip every index
// skip reports true for, pass each result it computes to record (which
// is safe for concurrent use), and return its results sorted by index.
// A query error other than cancellation returns nil results. On
// cancellation (core.ErrCanceled, or a canceled context) the restored
// and fresh results are returned, index-sorted, alongside query's
// error, after the checkpoint is flushed. A record or flush failure is
// returned after the run. Otherwise the merged results must cover every
// index from 0 up without a gap: a restored record beyond the query
// count is a stale checkpoint for a different query file.
func (r Run) Query(query func(skip func(int) bool, record func(core.Result)) ([]core.Result, error)) ([]core.Result, error) {
	if r.Path == "" {
		return query(nil, nil)
	}
	var w *Writer
	var done map[int]float64
	var err error
	if r.Resume {
		var loaded *LoadResult
		if w, loaded, err = Resume(r.Path, r.Header); err != nil {
			return nil, err
		}
		done = loaded.Done
		if r.OnResume != nil {
			r.OnResume(len(done))
		}
	} else if w, err = Create(r.Path, r.Header); err != nil {
		return nil, err
	}
	defer w.Close()
	if r.Interval > 0 {
		w.Interval = r.Interval
	}

	var mu sync.Mutex
	var recErr error
	results, err := query(
		func(idx int) bool { _, ok := done[idx]; return ok },
		func(res core.Result) {
			if err := w.Record(res.Index, res.AvgRF); err != nil {
				mu.Lock()
				if recErr == nil {
					recErr = err
				}
				mu.Unlock()
			}
		})
	canceled := errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled)
	if err != nil && !canceled {
		return nil, err
	}
	if flushErr := w.Flush(); recErr == nil {
		recErr = flushErr
	}
	if recErr != nil {
		return nil, fmt.Errorf("checkpointing failed: %w", recErr)
	}

	for idx, avg := range done {
		results = append(results, core.Result{Index: idx, AvgRF: avg})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	if !canceled {
		for i, res := range results {
			if res.Index != i {
				return nil, fmt.Errorf("checkpoint: result set is not contiguous at query %d (found index %d) — stale checkpoint for a different query file?", i, res.Index)
			}
		}
	}
	return results, err
}
