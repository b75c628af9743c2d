package repro

// Crash-safe resumable batch runs: AverageRFFiles with a checkpoint file
// that records each query tree's average as soon as it is computed, so an
// interrupted run (crash, OOM kill, SIGINT) resumes where it left off
// instead of starting over — and a resumed run is bit-identical to an
// uninterrupted one.

import (
	"context"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/collection"
	"repro/internal/core"
)

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
	// Context, when canceled, stops the run gracefully: in-flight
	// queries drain, the checkpoint is flushed, and the partial results
	// are returned with an error wrapping context.Canceled. Canceled
	// during the reference build, it stops the build reading and the run
	// returns no results. Nil means context.Background().
	Context context.Context
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
// and canceling run.Context flushes a valid checkpoint before returning.
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

	h, qsrc, err := prepare(run.Context, q, r, cfg)
	if err != nil {
		return nil, err
	}
	return query(h, qsrc, cfg, run)
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
	return query(h.h, q, h.cfg, run)
}

// query answers every tree of q against h — the one query path behind
// every file and in-memory entry point. checkpoint.Run owns
// create/resume, skip, record, flush and merge; with no checkpoint path
// it runs h.AverageRF once, as is.
func query(h *core.FreqHash, q collection.Source, cfg Config, run RunOptions) ([]Result, error) {
	v, err := cfg.variant()
	if err != nil {
		return nil, err
	}
	ck := checkpoint.Run{
		Path:     run.CheckpointPath,
		Resume:   run.Resume,
		Interval: run.CheckpointInterval,
		OnResume: run.OnResume,
	}
	if ck.Path != "" {
		ck.Header = checkpoint.Header{Fingerprint: h.Fingerprint(), Config: cfg.resultKey()}
	}
	res, err := ck.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		return h.AverageRF(q, core.QueryOptions{
			Workers:         cfg.Workers,
			Filter:          cfg.filter(h.Taxa().Len()),
			Variant:         v,
			RequireComplete: true,
			Skip:            skip,
			OnResult:        record,
			Context:         run.Context,
			Cache:           cfg.queryCache(),
		})
	})
	if res == nil && err != nil {
		return nil, err
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{Index: r.Index, AvgRF: r.AvgRF}
	}
	return out, err
}
