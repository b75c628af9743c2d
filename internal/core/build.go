package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/obs"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// BuildOptions configure the BFH construction phase (the first loop of
// Algorithm 2).
type BuildOptions struct {
	// Workers is the number of goroutines extracting bipartitions.
	// 0 selects GOMAXPROCS. The effective count is clamped to what the
	// collection size can keep busy when the source knows its size
	// (EffectiveWorkers).
	Workers int
	// Filter optionally drops bipartitions before they enter the hash —
	// the paper's pre-processing hook ("can still be pre-processed
	// according to generalized or variant RF algorithms").
	Filter bipart.Filter
	// RequireComplete rejects reference trees that do not cover the whole
	// catalogue. On by default via Build; variable-taxa pipelines restrict
	// trees first and keep this on for the reduced catalogue.
	RequireComplete bool
	// Backend selects the storage engine. BackendAuto (the zero value)
	// picks the open-addressing table, or the succinct table — the §IX
	// lossless key compression — once raw keys reach
	// autoSuccinctKeyBytes.
	Backend Backend
	// HashShards overrides the table's shard count (default: one shard
	// per worker; rounded to a power of two in [1, 256]).
	HashShards int
}

func (o BuildOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Build streams the reference collection once and constructs the
// bipartition frequency hash. Trees are fanned out to Workers goroutines
// that extract bipartitions into worker-local structures, merged at the
// end — the "embarrassingly parallel at the tree level" structure of the
// paper with no lock contention on the hot path. The merge itself is
// parallel across hash shards.
func Build(r collection.Source, ts *taxa.Set, opts BuildOptions) (*FreqHash, error) {
	if ts == nil {
		return nil, fmt.Errorf("core: taxon catalogue is required")
	}
	_, span := obs.StartSpan(nil, SpanBuild)
	defer span.End()
	h := &FreqHash{taxa: ts, weighted: true}
	// Parallel-parse fast path: when the source hands out raw statements,
	// workers parse as well as extract.
	if rs, ok := rawCapable(r); ok {
		if err := buildRaw(rs, ts, opts, h); err != nil {
			return nil, err
		}
		if h.numTrees == 0 {
			return nil, fmt.Errorf("core: reference collection is empty")
		}
		annotateBuildSpan(span, h)
		return h, nil
	}
	if err := r.Reset(); err != nil {
		return nil, err
	}

	workers := EffectiveWorkers(opts.workers(), sourceLen(r))
	backend, shards := opts.resolveBackendFor(ts.Len()), opts.shardCount(workers)
	jobs := make(chan *tree.Tree, workers*2)
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
			for t := range jobs {
				bs, err := ex.Extract(t)
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
		t, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			feedErr = err
			break
		}
		jobs <- t
	}
	close(jobs)
	wg.Wait()

	if feedErr != nil {
		return nil, fmt.Errorf("core: reading reference collection: %w", feedErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: reference tree: %w", err)
		}
	}
	bips := h.finishBuild(accums)
	if h.numTrees == 0 {
		return nil, fmt.Errorf("core: reference collection is empty")
	}
	recordBuild(h, bips)
	annotateBuildSpan(span, h)
	return h, nil
}

// BuildSplits builds the hash from reference trees already reduced to
// their canonical split sets, one set per tree — a distributed shard's
// build, whose coordinator extracts each tree once and ships only split
// words (internal/distrib). The sets fold through Build's accumulator and
// merge, into the table shard count Build picks for len(sets) trees. The
// hash copies what it keeps, so the sets may be reused once BuildSplits
// returns.
func BuildSplits(sets [][]bipart.Bipartition, ts *taxa.Set, opts BuildOptions) (*FreqHash, error) {
	if ts == nil {
		return nil, fmt.Errorf("core: taxon catalogue is required")
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: reference collection is empty")
	}
	_, span := obs.StartSpan(nil, SpanBuild)
	defer span.End()
	workers := EffectiveWorkers(opts.workers(), len(sets))
	acc := newBuildAccum(opts.resolveBackendFor(ts.Len()), ts, opts.shardCount(workers))
	for _, bs := range sets {
		acc.add(bs)
	}
	h := &FreqHash{taxa: ts, weighted: true}
	recordBuild(h, h.finishBuild([]*buildAccum{acc}))
	annotateBuildSpan(span, h)
	return h, nil
}

// wordsPerKey is the fixed word width of a canonical mask over ts.
func wordsPerKey(ts *taxa.Set) int { return (ts.Len() + 63) / 64 }

// BuildDefault builds the hash with complete-coverage checking and
// GOMAXPROCS workers, the common case.
func BuildDefault(r collection.Source, ts *taxa.Set) (*FreqHash, error) {
	return Build(r, ts, BuildOptions{RequireComplete: true})
}
