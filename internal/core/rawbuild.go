package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/taxa"
)

// This file implements the parallel-parse fast path: when the reference or
// query source can hand out raw Newick statements (collection.RawSource),
// workers go from each statement straight to its canonical splits
// (bipart.Extractor.ExtractNewick) with no tree in between, so reading
// trees — the dominant cost of file-backed runs — scales with the worker
// count. This is the full "parallelized the reading of trees, generating
// bipartitions, and then computing RF comparisons at the tree level"
// decomposition the paper describes for DSMP and BFHRF (§V).

// rawCapable reports whether src supports the raw path right now
// (RawSource implemented and the format splittable).
func rawCapable(src collection.Source) (collection.RawSource, bool) {
	rs, ok := src.(collection.RawSource)
	if !ok {
		return nil, false
	}
	if err := rs.Reset(); err != nil {
		return nil, false
	}
	stmt, err := rs.NextRaw()
	if err == collection.ErrRawUnsupported {
		return nil, false
	}
	if err != nil && err != io.EOF {
		return nil, false
	}
	_ = stmt
	if err := rs.Reset(); err != nil {
		return nil, false
	}
	return rs, true
}

// buildRaw is Build's worker body over raw statements.
func buildRaw(rs collection.RawSource, ts *taxa.Set, opts BuildOptions, h *FreqHash) error {
	workers := EffectiveWorkers(opts.workers(), sourceLen(rs))
	backend, shards := opts.resolveBackendFor(ts.Len()), opts.shardCount(workers)
	jobs := make(chan string, workers*4)
	accums := make([]*buildAccum, workers)
	errs := make([]error, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := &bipart.Extractor{
				Taxa:            ts,
				RequireComplete: opts.RequireComplete,
				Filter:          opts.Filter,
				ReuseMasks:      true,
			}
			acc := newBuildAccum(backend, ts, shards)
			for stmt := range jobs {
				bs, err := ex.ExtractNewick(stmt)
				if err != nil {
					if errs[w] == nil {
						errs[w] = err
					}
					continue
				}
				acc.add(bs)
			}
			accums[w] = acc
		}(w)
	}

	var feedErr error
	for {
		stmt, err := rs.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			feedErr = err
			break
		}
		jobs <- stmt
	}
	close(jobs)
	wg.Wait()

	if feedErr != nil {
		return fmt.Errorf("core: reading reference collection: %w", feedErr)
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("core: reference tree: %w", err)
		}
	}
	bips := h.finishBuild(accums)
	recordBuild(h, bips)
	return nil
}

// averageRFRaw is AverageRF's worker body over raw statements.
func (h *FreqHash) averageRFRaw(rs collection.RawSource, opts QueryOptions) ([]Result, error) {
	workers := EffectiveWorkers(opts.workers(), sourceLen(rs))
	type job struct {
		idx  int
		stmt string
	}
	jobs := make(chan job, workers*4)
	outs := make([][]Result, workers)
	errs := make([]error, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := &bipart.Extractor{
				Taxa:            h.taxa,
				RequireComplete: opts.RequireComplete,
				Filter:          opts.Filter,
				ReuseMasks:      true,
			}
			p := h.proberFor(opts)
			for j := range jobs {
				var avg float64
				bs, err := ex.ExtractNewick(j.stmt)
				if err == nil {
					avg, err = p.AverageRFOfSplits(bs, opts.Variant)
				}
				if err != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("core: query tree %d: %w", j.idx, err)
					}
					continue
				}
				r := Result{Index: j.idx, AvgRF: avg}
				if opts.OnResult != nil {
					opts.OnResult(r)
				}
				outs[w] = append(outs[w], r)
			}
		}(w)
	}

	var dispatched []bool
	canceled := false
	var feedErr error
	for !canceled {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				canceled = true
				continue
			default:
			}
		}
		stmt, err := rs.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			feedErr = err
			break
		}
		idx := len(dispatched)
		if opts.Skip != nil && opts.Skip(idx) {
			dispatched = append(dispatched, false)
			continue
		}
		dispatched = append(dispatched, true)
		jobs <- job{idx: idx, stmt: stmt}
	}
	close(jobs)
	wg.Wait()

	if feedErr != nil {
		return nil, fmt.Errorf("core: reading query collection: %w", feedErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return collectResults(outs, dispatched, canceled)
}
