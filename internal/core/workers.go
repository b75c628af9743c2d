package core

import (
	"context"
	"fmt"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/taxa"
)

// EffectiveWorkers is collection.EffectiveWorkers: the shared
// small-workload clamp (at most one worker per 64 trees). Re-exported here
// because core is where most callers configure worker counts.
func EffectiveWorkers(requested, trees int) int {
	return collection.EffectiveWorkers(requested, trees)
}

// pool runs Build's and AverageRF's passes on collection.Pool. Each worker
// reduces its items to splits with its own extractor, parsing a raw
// statement as it goes, and hands them to the caller's per-worker body.
type pool struct {
	kind            string // "reference" or "query", for error messages
	workers         int    // requested count, clamped by EffectiveWorkers
	taxa            *taxa.Set
	filter          bipart.Filter
	requireComplete bool
	skip            func(idx int) bool // QueryOptions.Skip
	ramp            bool               // collection.Pool.Ramp
}

// run is collection.Pool.Run with use(w, idx, bs) handed item idx's
// splits, valid only during the call; a bad tree's error names its index.
func (p pool) run(ctx context.Context, src collection.Source, start func(workers int), use func(w, idx int, bs []bipart.Bipartition) error) (dispatched []bool, err error) {
	var exs []*bipart.Extractor
	return collection.Pool{Workers: p.workers, Ramp: p.ramp, Skip: p.skip}.Run(ctx, src, func(workers int) {
		exs = make([]*bipart.Extractor, workers)
		for w := range exs {
			exs[w] = &bipart.Extractor{
				Taxa:            p.taxa,
				RequireComplete: p.requireComplete,
				Filter:          p.filter,
				ReuseMasks:      true,
			}
		}
		start(workers)
	}, func(w, idx int, it collection.Item) error {
		bs, err := it.Splits(exs[w])
		if err == nil {
			err = use(w, idx, bs)
		}
		if err != nil {
			return fmt.Errorf("core: %s tree %d: %w", p.kind, idx, err)
		}
		return nil
	})
}
