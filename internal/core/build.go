package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/obs"
	"repro/internal/taxa"
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
	// Context, when set, parents the build's span, and Build stops
	// reading the collection when it ends, returning an error wrapping
	// the context's error. Nil means context.Background().
	Context context.Context
}

func (o BuildOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Build streams the reference collection once and constructs the
// bipartition frequency hash. The calling goroutine and Workers−1 helpers
// extract bipartitions into worker-local structures, merged at the
// end — the "embarrassingly parallel at the tree level" structure of the
// paper with no lock contention on the hot path. The merge itself is
// parallel across hash shards.
func Build(r collection.Source, ts *taxa.Set, opts BuildOptions) (*FreqHash, error) {
	if ts == nil {
		return nil, fmt.Errorf("core: taxon catalogue is required")
	}
	ctx, span := obs.StartSpan(opts.Context, SpanBuild)
	defer span.End()
	h := &FreqHash{taxa: ts, weighted: true}
	var accums []*buildAccum
	p := pool{
		kind:            "reference",
		workers:         opts.workers(),
		taxa:            ts,
		filter:          opts.Filter,
		requireComplete: opts.RequireComplete,
	}
	_, err := p.run(ctx, r, func(workers int) {
		backend, shards := opts.resolveBackendFor(ts.Len()), opts.shardCount(workers)
		accums = make([]*buildAccum, workers)
		for w := range accums {
			accums[w] = newBuildAccum(backend, ts, shards)
		}
	}, func(w, _ int, bs []bipart.Bipartition) error {
		err := h.lenAbs.take(absLengths(bs))
		if err == nil {
			accums[w].add(bs)
		}
		return err
	})
	if err != nil {
		return nil, err
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
	_, span := obs.StartSpan(opts.Context, SpanBuild)
	defer span.End()
	workers := EffectiveWorkers(opts.workers(), len(sets))
	h := &FreqHash{taxa: ts, weighted: true}
	acc := newBuildAccum(opts.resolveBackendFor(ts.Len()), ts, opts.shardCount(workers))
	for i, bs := range sets {
		if err := h.lenAbs.take(absLengths(bs)); err != nil {
			return nil, fmt.Errorf("core: reference tree %d: %w", i, err)
		}
		acc.add(bs)
	}
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
