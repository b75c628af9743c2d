package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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

// sourceLen returns the tree count of a source when it is known without
// a scan (via collection.Counter), else -1. The pool uses it to clamp
// workers; a full counting pass would cost more than it saves.
func sourceLen(src collection.Source) int {
	if c, ok := src.(collection.Counter); ok {
		return c.Count()
	}
	return -1
}

// pool is the tree-level decomposition Build and AverageRF both run on:
// "parallelized the reading of trees, generating bipartitions, and then
// computing RF comparisons at the tree level" (paper §V). One feeder reads
// the collection in stream order through a collection.Reader; each worker
// reduces the items it is handed to their splits with its own extractor —
// parsing a raw statement as it goes, so reading a file scales with the
// workers — and hands them to the caller's per-worker body.
type pool struct {
	kind            string // "reference" or "query", for error messages
	workers         int    // requested count, clamped by EffectiveWorkers
	taxa            *taxa.Set
	filter          bipart.Filter
	requireComplete bool
	// skip elides items the way QueryOptions.Skip says.
	skip func(idx int) bool
	// ramp starts the workers as the feed reaches them, one per 64 trees
	// read (EffectiveWorkers over the trees fed so far), rather than all
	// at once. A build of unknown size that turns out small then runs on
	// one worker, summing branch lengths in stream order as a build of
	// known size does, with no counting pass.
	ramp bool
}

// run makes one pass over src. start is called once, with the effective
// worker count, before any item is fed; use(w, idx, bs) then consumes
// item idx's splits on worker w, and bs is valid only during the call.
// run returns which items were dispatched (fed and not skipped). When
// ctx ends first, the feed stops, in-flight items drain, and run returns
// the items dispatched so far with an error wrapping ctx.Err(). Of
// several failures it reports the earliest in stream order: the first
// bad tree, else the read error that ended the feed.
func (p pool) run(ctx context.Context, src collection.Source, start func(workers int), use func(w, idx int, bs []bipart.Bipartition) error) (dispatched []bool, err error) {
	rd, err := collection.NewReader(src)
	if err != nil {
		return nil, err
	}
	workers := EffectiveWorkers(p.workers, sourceLen(src))
	start(workers)
	type job struct {
		idx int
		it  collection.Item
	}
	type treeErr struct {
		idx int
		err error
	}
	jobs := make(chan job, workers*4) // a few trees of slack per worker
	errs := make([]treeErr, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	work := func(w int) {
		defer wg.Done()
		ex := &bipart.Extractor{
			Taxa:            p.taxa,
			RequireComplete: p.requireComplete,
			Filter:          p.filter,
			ReuseMasks:      true,
		}
		for j := range jobs {
			// Jobs reach a worker in stream order, so its first error
			// is its earliest; it drains the rest unread.
			if errs[w].err != nil {
				continue
			}
			bs, err := j.it.Splits(ex)
			if err == nil {
				err = use(w, j.idx, bs)
			}
			if err != nil {
				errs[w] = treeErr{j.idx, err}
				failed.Store(true)
			}
		}
	}
	started := 0
	launch := func(upTo int) {
		for ; started < upTo; started++ {
			wg.Add(1)
			go work(started)
		}
	}
	if !p.ramp {
		launch(workers)
	}

	var feedErr, stopped error
	done := ctx.Done() // nil, and never ready, for a context that cannot end
	// A failed pass stops reading: every tree before the failure is
	// already fed, so the earliest bad tree is still found.
feed:
	for !failed.Load() {
		select {
		case <-done:
			stopped = fmt.Errorf("core: %s feed stopped: %w", p.kind, ctx.Err())
			break feed
		default:
		}
		it, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			feedErr = err
			break
		}
		idx := len(dispatched)
		if p.ramp {
			launch(EffectiveWorkers(workers, idx+1))
		}
		skipped := p.skip != nil && p.skip(idx)
		dispatched = append(dispatched, !skipped)
		if !skipped {
			jobs <- job{idx, it}
		}
	}
	close(jobs)
	wg.Wait()

	first := -1
	for w := range errs {
		if errs[w].err != nil && (first < 0 || errs[w].idx < errs[first].idx) {
			first = w
		}
	}
	if first >= 0 {
		return nil, fmt.Errorf("core: %s tree %d: %w", p.kind, errs[first].idx, errs[first].err)
	}
	if feedErr != nil {
		return nil, fmt.Errorf("core: reading %s collection: %w", p.kind, feedErr)
	}
	return dispatched, stopped
}
