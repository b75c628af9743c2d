// Package repro is the public API of the BFHRF reproduction: scalable and
// extensible Robinson-Foulds distances between collections of phylogenetic
// trees, after Chon et al., "Scalable and Extensible Robinson-Foulds for
// Comparative Phylogenetics" (IPDPSW 2022).
//
// The central operation is computing, for each query tree in a collection
// Q, its average RF distance to a reference collection R — via a
// bipartition frequency hash (BFH) built once over R. Entry points accept
// Newick files or strings; the returned values are per-query averages in
// query order.
//
// # Quick start
//
//	results, err := repro.AverageRFFiles("queries.nwk", "references.nwk", repro.Config{})
//	best, _ := repro.BestResult(results)
//
// For repeated queries against one reference collection, build the hash
// once with BuildHashFile and query it many times.
package repro

import (
	"context"
	"fmt"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/day"
	"repro/internal/newick"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// Variant names an RF flavour for Config.
const (
	// VariantPlain is the traditional symmetric-difference count.
	VariantPlain = "plain"
	// VariantNormalized divides by the maximum RF 2(n−3), giving [0,1].
	VariantNormalized = "normalized"
	// VariantWeighted sums branch lengths of unshared bipartitions.
	VariantWeighted = "weighted"
	// VariantInfo weights each unshared bipartition by its phylogenetic
	// information content (the information-theoretic generalized RF).
	VariantInfo = "info"
)

// Config controls average-RF computations.
type Config struct {
	// Workers is the parallelism degree; 0 uses all CPUs.
	Workers int
	// Variant is one of VariantPlain (default), VariantNormalized,
	// VariantWeighted, VariantInfo.
	Variant string
	// MinSplitSize / MaxSplitSize filter bipartitions by the size of the
	// smaller side (0 = no bound) — the paper's demonstrated extensibility
	// hook.
	MinSplitSize int
	MaxSplitSize int
	// IntersectTaxa enables variable-taxa mode: trees are restricted to
	// the taxa common to every tree before comparison (intersection
	// reduction). Without it, all trees must share an identical taxon set.
	IntersectTaxa bool
	// Backend selects the hash storage: "auto" (default), "openaddr" or
	// "succinct" — the losslessly compressed keys of paper §IX, trading a
	// little CPU for memory.
	Backend string
	// HashShards is the hash's shard count (a power of two; 0 = default).
	// More shards mean finer-grained copy-on-write in snapshot deltas.
	HashShards int

	// NoQueryCache disables the topology-fingerprint result cache that
	// answers exact topological repeats (bootstrap replicates, posterior
	// samples) without re-probing the hash. The cache is on by default
	// for the Plain and Normalized variants; Weighted and Info queries
	// never use it. Disable it for memory-constrained runs or when the
	// query stream has no repeats.
	NoQueryCache bool
	// QueryCacheEntries caps the cache's entry count (0 = default 65536).
	QueryCacheEntries int
	// QueryCacheBytes caps the cache's accounted memory (0 = default 8 MiB).
	QueryCacheBytes int64

	// SkipBadTrees makes file ingest lenient: malformed or over-limit
	// trees are skipped (each recorded as a diagnostic) instead of
	// failing the run. The default is strict — fail fast on the first
	// bad tree.
	SkipBadTrees bool
	// MaxTaxa caps the number of leaves per input tree (0 = unlimited).
	MaxTaxa int
	// MaxTreeBytes caps the serialized size of one input tree
	// (0 = unlimited).
	MaxTreeBytes int
	// MaxInputBytes caps the decompressed bytes read per input file
	// (0 = unlimited). Exceeding it fails the run even with
	// SkipBadTrees — the budget exists to stop runaway inputs.
	MaxInputBytes int64
	// OnBadTree, when set with SkipBadTrees, observes each skipped
	// tree's diagnostic (file path, tree ordinal, line, reason).
	OnBadTree func(BadTree)
}

// BadTree describes one input tree skipped by lenient ingest.
type BadTree struct {
	Path   string
	Tree   int // 1-based ordinal within the file
	Line   int // 1-based line where the failure was detected (0 if unknown)
	Reason string
	// Limit marks trees dropped by a resource limit (MaxTaxa,
	// MaxTreeBytes) rather than a syntax error.
	Limit bool
}

// ingest translates the Config's hardening fields to collection options.
func (c Config) ingest() collection.Options {
	opts := collection.Options{
		Lenient:       c.SkipBadTrees,
		Limits:        newick.Limits{MaxTaxa: c.MaxTaxa, MaxTreeBytes: c.MaxTreeBytes},
		MaxInputBytes: c.MaxInputBytes,
	}
	if c.OnBadTree != nil {
		cb := c.OnBadTree
		opts.OnDiag = func(d collection.Diag) {
			cb(BadTree{Path: d.Path, Tree: d.Tree, Line: d.Line, Reason: d.Reason, Limit: d.Limit})
		}
	}
	return opts
}

func (c Config) variant() (core.Variant, error) {
	switch c.Variant {
	case "", VariantPlain:
		return core.Plain, nil
	case VariantNormalized:
		return core.Normalized, nil
	case VariantWeighted:
		return core.Weighted, nil
	case VariantInfo:
		return core.Info, nil
	default:
		return 0, fmt.Errorf("repro: unknown variant %q", c.Variant)
	}
}

// queryCache constructs the configured query-result cache, or nil when
// disabled.
func (c Config) queryCache() *core.QueryCache {
	if c.NoQueryCache {
		return nil
	}
	return core.NewQueryCache(c.QueryCacheEntries, c.QueryCacheBytes)
}

// build builds the hash of r over the catalogue ts with the Config's
// build-affecting fields. Every tree must cover ts exactly. The build
// stops reading r when ctx ends and joins ctx's trace.
func (c Config) build(ctx context.Context, r collection.Source, ts *taxa.Set) (*core.FreqHash, error) {
	b, err := core.ParseBackend(c.Backend)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return core.Build(r, ts, core.BuildOptions{
		Workers:         c.Workers,
		Filter:          c.filter(ts.Len()),
		RequireComplete: true,
		Backend:         b,
		HashShards:      c.HashShards,
		Context:         ctx,
	})
}

// buildRefs builds the reference hash in one pass over r. The catalogue
// is the first tree's leaf set: every reference tree must carry it, so
// the build's complete-coverage check names the first tree that does not,
// with its unknown or missing leaf.
func buildRefs(ctx context.Context, r collection.Source, cfg Config) (*core.FreqHash, error) {
	ts, err := collection.FirstTaxa(r)
	if err != nil {
		return nil, err
	}
	return cfg.build(ctx, r, ts)
}

func (c Config) filter(n int) bipart.Filter {
	if c.MinSplitSize <= 0 && c.MaxSplitSize <= 0 {
		return nil
	}
	min := c.MinSplitSize
	if min < 0 {
		min = 0
	}
	return bipart.SizeFilter(min, c.MaxSplitSize, n)
}

// Result is the average RF of one query tree against the reference
// collection.
type Result struct {
	// Index is the query's position (0-based) in the query collection.
	Index int
	// AvgRF is the average distance in the configured variant's units.
	AvgRF float64
}

// BestResult returns the result with the lowest average RF — the
// most-parsimonious candidate under the RF criterion.
func BestResult(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("repro: no results")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.AvgRF < best.AvgRF {
			best = r
		}
	}
	return best, nil
}

// AverageRFFiles computes average RF of every tree in the query Newick
// file against the collection in the reference Newick file.
func AverageRFFiles(queryPath, refPath string, cfg Config) ([]Result, error) {
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
	return averageRF(q, r, cfg)
}

// AverageRFNewick computes average RF of every query Newick string against
// the reference Newick strings.
func AverageRFNewick(queries, refs []string, cfg Config) ([]Result, error) {
	q, err := collection.FromNewick(queries)
	if err != nil {
		return nil, fmt.Errorf("repro: query: %w", err)
	}
	r, err := collection.FromNewick(refs)
	if err != nil {
		return nil, fmt.Errorf("repro: reference: %w", err)
	}
	return averageRF(q, r, cfg)
}

func averageRF(q, r collection.Source, cfg Config) ([]Result, error) {
	h, qsrc, err := prepare(context.Background(), q, r, cfg)
	if err != nil {
		return nil, err
	}
	return query(h, qsrc, cfg, RunOptions{})
}

// prepare builds the reference hash for a query run and returns the
// query source to run against it, restricted to the common taxa under
// IntersectTaxa. The build stops reading r when ctx ends.
func prepare(ctx context.Context, q, r collection.Source, cfg Config) (*core.FreqHash, collection.Source, error) {
	if !cfg.IntersectTaxa {
		h, err := buildRefs(ctx, r, cfg)
		return h, q, err
	}
	ts, err := collection.ScanCommonTaxa(q, r)
	if err != nil {
		return nil, nil, err
	}
	if ts.Len() < 4 {
		return nil, nil, fmt.Errorf("repro: only %d taxa common to every tree; need at least 4", ts.Len())
	}
	h, err := cfg.build(ctx, collection.Restricted(r, ts), ts)
	return h, collection.Restricted(q, ts), err
}

// PairwiseRF returns the exact RF distance between two Newick trees on the
// same taxa, computed with Day's O(n) algorithm.
func PairwiseRF(newick1, newick2 string) (int, error) {
	t1, err := newick.Parse(newick1)
	if err != nil {
		return 0, fmt.Errorf("repro: first tree: %w", err)
	}
	t2, err := newick.Parse(newick2)
	if err != nil {
		return 0, fmt.Errorf("repro: second tree: %w", err)
	}
	return day.RF(t1, t2)
}

// ConsensusFile builds the threshold consensus tree of the collection in
// the Newick file directly from its bipartition frequency hash and returns
// it as a Newick string. threshold 0.5 is majority rule.
func ConsensusFile(refPath string, threshold float64, cfg Config) (string, error) {
	r, err := collection.OpenFileOpts(refPath, cfg.ingest())
	if err != nil {
		return "", err
	}
	defer r.Close()
	return consensus(r, threshold, cfg)
}

// ConsensusNewick is ConsensusFile over in-memory Newick strings.
func ConsensusNewick(refs []string, threshold float64, cfg Config) (string, error) {
	r, err := collection.FromNewick(refs)
	if err != nil {
		return "", fmt.Errorf("repro: reference: %w", err)
	}
	return consensus(r, threshold, cfg)
}

func consensus(r collection.Source, threshold float64, cfg Config) (string, error) {
	return consensusWith(r, cfg, func(h *core.FreqHash) (*tree.Tree, error) {
		return h.Consensus(threshold)
	})
}

// GreedyConsensusFile builds the greedy (extended majority-rule) consensus
// of the collection: splits are added in decreasing support order while
// compatible. minSupport prunes the candidate list.
func GreedyConsensusFile(refPath string, minSupport float64, cfg Config) (string, error) {
	r, err := collection.OpenFileOpts(refPath, cfg.ingest())
	if err != nil {
		return "", err
	}
	defer r.Close()
	return consensusWith(r, cfg, func(h *core.FreqHash) (*tree.Tree, error) {
		return h.GreedyConsensus(minSupport)
	})
}

// GreedyConsensusNewick is GreedyConsensusFile over in-memory strings.
func GreedyConsensusNewick(refs []string, minSupport float64, cfg Config) (string, error) {
	r, err := collection.FromNewick(refs)
	if err != nil {
		return "", fmt.Errorf("repro: reference: %w", err)
	}
	return consensusWith(r, cfg, func(h *core.FreqHash) (*tree.Tree, error) {
		return h.GreedyConsensus(minSupport)
	})
}

func consensusWith(r collection.Source, cfg Config, build func(*core.FreqHash) (*tree.Tree, error)) (string, error) {
	h, err := buildRefs(context.Background(), r, cfg)
	if err != nil {
		return "", err
	}
	t, err := build(h)
	if err != nil {
		return "", err
	}
	return newick.String(t, newick.DefaultWriteOptions()), nil
}
