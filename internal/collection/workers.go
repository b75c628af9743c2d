package collection

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// treesPerWorkerFloor is the minimum number of trees that justifies one
// extra worker. Below it, starting a helper goroutine and handing it items
// cost more than the per-tree work they take off the calling goroutine, and
// parallelism makes small workloads slower (BENCH_0001: DSMP8 lost to
// single-threaded DS on a 289-tree slice).
const treesPerWorkerFloor = 64

// EffectiveWorkers clamps a requested worker count to what a workload of
// the given tree count can keep busy: at most one worker per 64 trees,
// never below one. A non-positive tree count means the workload size is
// unknown and the request passes through. Every engine routes its worker
// count through this one rule (Pool, so core.Build, core.AverageRF and the
// catalogue scans; seqrf DSMP).
func EffectiveWorkers(requested, trees int) int {
	if requested < 1 {
		requested = 1
	}
	if trees <= 0 {
		return requested
	}
	max := trees / treesPerWorkerFloor
	if max < 1 {
		max = 1
	}
	if requested > max {
		return max
	}
	return requested
}

// sourceLen is src's tree count when Counter knows it without a scan,
// else -1; a counting pass to clamp workers would cost more than it saves.
func sourceLen(src Source) int {
	if c, ok := src.(Counter); ok {
		return c.Count()
	}
	return -1
}

// Pool is the one tree-level decomposition every pass over a collection
// runs on — core's builds and queries and the catalogue scans: "parallelized
// the reading of trees, generating bipartitions, and then computing RF
// comparisons at the tree level" (paper §V). It is a caller-runs pool: the
// goroutine that calls Run reads the collection in stream order through a
// Reader and is also worker 0. It hands an item to the helpers, workers 1
// to N−1, only when their queue has room, and otherwise answers it itself,
// so it never parks on a full queue and N workers are N runnable
// goroutines, not N plus a feeder. A one-worker pass starts no goroutine.
type Pool struct {
	// Workers is the requested count, clamped by EffectiveWorkers to the
	// source's size when it is known without a scan.
	Workers int
	// Skip, when set, elides the items it reports: read, not answered.
	Skip func(idx int) bool
}

// Run makes one pass over src. start is called once, with the effective
// worker count, before any item is read; use(w, idx, it) then answers item
// idx on worker w, and each worker answers its items in stream order. Run
// returns which items were dispatched (read and not skipped). Of several
// failures it returns the earliest in stream order, as a serial pass would:
// the error use returned for the first failed item, else the read error
// that ended the pass; a failed pass reads no further. When ctx ends first,
// reading stops, the items already dispatched are answered, and Run returns
// them with an error wrapping ctx.Err().
func (p Pool) Run(ctx context.Context, src Source, start func(workers int), use func(w, idx int, it Item) error) (dispatched []bool, err error) {
	rd, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	workers := EffectiveWorkers(p.Workers, sourceLen(src))
	start(workers)
	type job struct {
		idx int
		it  Item
	}
	// Worker w's first failure, which is also its earliest.
	failIdx, failErr := make([]int, workers), make([]error, workers)
	var failed atomic.Bool
	answer := func(w int, j job) {
		if failErr[w] != nil {
			return // past this worker's failure: drained unanswered
		}
		if err := use(w, j.idx, j.it); err != nil {
			failIdx[w], failErr[w] = j.idx, err
			failed.Store(true)
		}
	}
	// A few items of slack per helper keep it busy while the caller
	// answers one itself; with no helper, a send is never ready.
	jobs := make(chan job, (workers-1)*4)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				answer(w, j)
			}
		}(w)
	}

	var readErr, stopped error
	// A failed pass stops reading: every tree before the failure is
	// already dispatched, so the earliest bad tree is still found.
	for !failed.Load() {
		if err := ctx.Err(); err != nil {
			stopped = fmt.Errorf("collection: pass stopped: %w", err)
			break
		}
		it, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		idx := len(dispatched)
		skipped := p.Skip != nil && p.Skip(idx)
		dispatched = append(dispatched, !skipped)
		if skipped {
			continue
		}
		select {
		case jobs <- job{idx, it}:
		default:
			answer(0, job{idx, it})
		}
	}
	close(jobs)
	wg.Wait()

	first := -1
	for w, err := range failErr {
		if err != nil && (first < 0 || failIdx[w] < failIdx[first]) {
			first = w
		}
	}
	if first >= 0 {
		return nil, failErr[first]
	}
	if readErr != nil {
		return nil, readErr
	}
	return dispatched, stopped
}
