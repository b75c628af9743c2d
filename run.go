package repro

// Crash-safe resumable batch runs: AverageRFFiles with a checkpoint file
// that records each query tree's average as soon as it is computed, so an
// interrupted run (crash, OOM kill, SIGINT) resumes where it left off
// instead of starting over — and a resumed run is bit-identical to an
// uninterrupted one.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/collection"
	"repro/internal/core"
)

// ErrCanceled is returned by AverageRFFilesResumable when RunOptions.Cancel
// fires; the results completed (and checkpointed) so far accompany it.
var ErrCanceled = core.ErrCanceled

// RunOptions configure checkpointing and cancellation for a batch run.
type RunOptions struct {
	// CheckpointPath is the record file for per-query results. Empty
	// disables checkpointing (the run behaves like AverageRFFiles).
	CheckpointPath string
	// Resume loads CheckpointPath (which must match this run's reference
	// fingerprint and configuration) and skips already-completed query
	// trees. Without Resume an existing checkpoint is overwritten.
	Resume bool
	// CheckpointInterval is how many results accumulate between
	// flush+fsync cycles (0 = checkpoint.DefaultInterval).
	CheckpointInterval int
	// Cancel, when closed, stops the run gracefully: in-flight queries
	// drain, the checkpoint is flushed, and the partial results are
	// returned with ErrCanceled.
	Cancel <-chan struct{}
	// OnResume, if set, is called once after a successful Resume with the
	// number of already-completed queries restored from the checkpoint.
	OnResume func(done int)
}

// resultKey canonically renders every Config field that affects results,
// for the checkpoint header: a checkpoint written under one key must not
// resume a run with another.
func (c Config) resultKey() string {
	return fmt.Sprintf("variant=%s min=%d max=%d intersect=%t skipbad=%t maxtaxa=%d maxtreebytes=%d maxinput=%d",
		c.Variant, c.MinSplitSize, c.MaxSplitSize, c.IntersectTaxa,
		c.SkipBadTrees, c.MaxTaxa, c.MaxTreeBytes, c.MaxInputBytes)
}

// ErrCheckpointMismatch is returned when -resume finds a checkpoint
// written against a different reference collection or configuration.
var ErrCheckpointMismatch = checkpoint.ErrMismatch

// AverageRFFilesResumable is AverageRFFiles with crash-safety: results
// stream into run.CheckpointPath as they are computed, a resumed run
// (run.Resume) skips query trees already recorded — after verifying the
// checkpoint's reference fingerprint matches the current reference set —
// and run.Cancel flushes a valid checkpoint before returning.
func AverageRFFilesResumable(queryPath, refPath string, cfg Config, run RunOptions) ([]Result, error) {
	q, err := collection.OpenFileOpts(queryPath, cfg.ingest())
	if err != nil {
		return nil, err
	}
	defer q.Close()
	r, err := collection.OpenFileOpts(refPath, cfg.ingest())
	if err != nil {
		return nil, err
	}
	defer r.Close()

	h, qsrc, err := prepare(q, r, cfg)
	if err != nil {
		return nil, err
	}
	return resumableQuery(h, qsrc, cfg, run)
}

// AverageRFFileResumable runs the query file against this hash with the
// same checkpoint/resume semantics as AverageRFFilesResumable — but
// without rebuilding the reference hash, so a snapshot-loaded hash can
// serve crash-safe batch runs directly.
func (h *Hash) AverageRFFileResumable(queryPath string, run RunOptions) ([]Result, error) {
	q, err := collection.OpenFileOpts(queryPath, h.cfg.ingest())
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return resumableQuery(h.h, q, h.cfg, run)
}

// resumableQuery is the checkpoint-wired query loop shared by the
// file-pair entry point and the prebuilt-hash method.
func resumableQuery(h *core.FreqHash, qsrc collection.Source, cfg Config, run RunOptions) ([]Result, error) {
	v, err := cfg.variant()
	if err != nil {
		return nil, err
	}
	opts := core.QueryOptions{
		Workers:         cfg.Workers,
		Filter:          cfg.filter(h.Taxa().Len()),
		Variant:         v,
		RequireComplete: true,
		Cancel:          run.Cancel,
		Cache:           cfg.queryCache(),
	}

	done := map[int]float64{}
	var w *checkpoint.Writer
	if run.CheckpointPath != "" {
		hdr := checkpoint.Header{Fingerprint: h.Fingerprint(), Config: cfg.resultKey()}
		if run.Resume {
			var loaded *checkpoint.LoadResult
			w, loaded, err = checkpoint.Resume(run.CheckpointPath, hdr)
			if err != nil {
				return nil, err
			}
			done = loaded.Done
			if run.OnResume != nil {
				run.OnResume(len(done))
			}
		} else {
			w, err = checkpoint.Create(run.CheckpointPath, hdr)
			if err != nil {
				return nil, err
			}
		}
		defer w.Close()
		if run.CheckpointInterval > 0 {
			w.Interval = run.CheckpointInterval
		}
		opts.Skip = func(idx int) bool { _, ok := done[idx]; return ok }

		var ckMu sync.Mutex
		var ckErr error
		opts.OnResult = func(res core.Result) {
			if err := w.Record(res.Index, res.AvgRF); err != nil {
				ckMu.Lock()
				if ckErr == nil {
					ckErr = err
				}
				ckMu.Unlock()
			}
		}
		results, err := h.AverageRF(qsrc, opts)
		canceled := errors.Is(err, core.ErrCanceled)
		if err != nil && !canceled {
			return nil, err
		}
		if flushErr := w.Flush(); flushErr != nil && ckErr == nil {
			ckErr = flushErr
		}
		if ckErr != nil {
			return nil, fmt.Errorf("repro: checkpointing failed: %w", ckErr)
		}
		merged, mergeErr := mergeResults(results, done, canceled)
		if mergeErr != nil {
			return nil, mergeErr
		}
		if canceled {
			return merged, ErrCanceled
		}
		return merged, nil
	}

	results, err := h.AverageRF(qsrc, opts)
	if err != nil && !errors.Is(err, core.ErrCanceled) {
		return nil, err
	}
	merged, mergeErr := mergeResults(results, nil, errors.Is(err, core.ErrCanceled))
	if mergeErr != nil {
		return nil, mergeErr
	}
	return merged, err
}

// mergeResults folds checkpoint-restored averages into freshly computed
// ones and verifies the combined set is a contiguous 0..n-1 range (unless
// the run was canceled, in which case gaps are expected). A checkpoint
// record beyond the query count — stale state from a different query
// file — fails loudly rather than folding in silently.
func mergeResults(computed []core.Result, done map[int]float64, canceled bool) ([]Result, error) {
	out := make([]Result, 0, len(computed)+len(done))
	seen := make(map[int]bool, len(computed)+len(done))
	for _, r := range computed {
		out = append(out, Result{Index: r.Index, AvgRF: r.AvgRF})
		seen[r.Index] = true
	}
	for idx, avg := range done {
		if seen[idx] {
			continue
		}
		out = append(out, Result{Index: idx, AvgRF: avg})
		seen[idx] = true
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	if !canceled {
		for i, r := range out {
			if r.Index != i {
				return nil, fmt.Errorf("repro: result set is not contiguous at query %d (found index %d) — stale checkpoint for a different query file?", i, r.Index)
			}
		}
	}
	return out, nil
}
