package repro

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
)

// Hash is a reusable bipartition frequency hash over one reference
// collection. Build it once, then run any number of queries, consensus
// constructions, or incremental updates against it — the amortization that
// makes BFHRF's "r operations to create BFH_R, then q tree-versus-hash
// comparisons" decomposition valuable beyond a single batch run.
type Hash struct {
	h   *core.FreqHash
	cfg Config
}

// BuildHashFile streams the reference Newick file once and builds the hash.
func BuildHashFile(refPath string, cfg Config) (*Hash, error) {
	r, err := collection.OpenFileOpts(refPath, cfg.ingest())
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return buildHash(r, cfg)
}

// BuildHashNewick builds the hash from in-memory Newick strings.
func BuildHashNewick(refs []string, cfg Config) (*Hash, error) {
	r, err := collection.FromNewick(refs)
	if err != nil {
		return nil, fmt.Errorf("repro: reference: %w", err)
	}
	return buildHash(r, cfg)
}

func buildHash(r collection.Source, cfg Config) (*Hash, error) {
	h, err := buildRefs(context.Background(), r, cfg)
	if err != nil {
		return nil, err
	}
	return &Hash{h: h, cfg: cfg}, nil
}

// Stats summarizes the hash, the quantities the paper's memory analysis
// turns on (§VII.C).
type Stats struct {
	// NumTrees is r, the reference collection size.
	NumTrees int
	// NumTaxa is n, the catalogue size.
	NumTaxa int
	// UniqueBipartitions bounds the hash's memory.
	UniqueBipartitions int
	// TotalBipartitions is sumBFHR, the total instances indexed.
	TotalBipartitions uint64
	// Weighted reports whether every reference split carried a length.
	Weighted bool
}

// Stats returns the hash summary.
func (h *Hash) Stats() Stats {
	return Stats{
		NumTrees:           h.h.NumTrees(),
		NumTaxa:            h.h.Taxa().Len(),
		UniqueBipartitions: h.h.UniqueBipartitions(),
		TotalBipartitions:  h.h.TotalBipartitions(),
		Weighted:           h.h.Weighted(),
	}
}

// AverageRFFile computes average distances for every tree in the query
// Newick file against the hash.
func (h *Hash) AverageRFFile(queryPath string) ([]Result, error) {
	q, err := collection.OpenFileOpts(queryPath, h.cfg.ingest())
	if err != nil {
		return nil, err
	}
	defer q.Close()
	return query(h.h, q, h.cfg, RunOptions{})
}

// AverageRFNewick computes average distances for query Newick strings.
func (h *Hash) AverageRFNewick(queries []string) ([]Result, error) {
	q, err := collection.FromNewick(queries)
	if err != nil {
		return nil, fmt.Errorf("repro: query: %w", err)
	}
	return query(h.h, q, h.cfg, RunOptions{})
}

// AverageRFOne computes the average distance of a single Newick tree.
func (h *Hash) AverageRFOne(newickTree string) (float64, error) {
	res, err := h.AverageRFNewick([]string{newickTree})
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("repro: expected 1 result, got %d", len(res))
	}
	return res[0].AvgRF, nil
}

// Consensus returns the threshold consensus tree as a Newick string
// (threshold 0.5 = majority rule).
func (h *Hash) Consensus(threshold float64) (string, error) {
	t, err := h.h.Consensus(threshold)
	if err != nil {
		return "", err
	}
	return newick.String(t, newick.DefaultWriteOptions()), nil
}

// GreedyConsensus returns the extended (greedy) majority-rule consensus.
func (h *Hash) GreedyConsensus(minSupport float64) (string, error) {
	t, err := h.h.GreedyConsensus(minSupport)
	if err != nil {
		return "", err
	}
	return newick.String(t, newick.DefaultWriteOptions()), nil
}

// AddTree folds one more reference tree (as Newick) into the hash.
func (h *Hash) AddTree(newickTree string) error {
	bs, err := h.splitsOf(newickTree)
	if err != nil {
		return err
	}
	return h.h.AddSplits(bs)
}

// RemoveTree subtracts a previously added reference tree (as Newick).
func (h *Hash) RemoveTree(newickTree string) error {
	bs, err := h.splitsOf(newickTree)
	if err != nil {
		return err
	}
	return h.h.RemoveSplits(bs)
}

// splitsOf reduces one Newick statement straight to its splits over the
// hash's catalogue, with no tree built. A syntax error is wrapped like
// every Newick error of this package; a catalogue error is returned as
// the extractor words it.
func (h *Hash) splitsOf(newickTree string) ([]bipart.Bipartition, error) {
	ts := h.h.Taxa()
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true, Filter: h.cfg.filter(ts.Len())}
	bs, err := ex.ExtractNewick(newickTree)
	var pe *newick.ParseError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return bs, err
}

// AnnotateSupport labels every internal edge of the Newick tree with the
// percentage of reference trees containing its split, returning the
// annotated Newick. digits controls decimal places on the labels.
func (h *Hash) AnnotateSupport(newickTree string, digits int) (string, error) {
	t, err := newick.Parse(newickTree)
	if err != nil {
		return "", fmt.Errorf("repro: %w", err)
	}
	if err := h.h.AnnotateSupport(t, digits); err != nil {
		return "", err
	}
	return newick.String(t, newick.DefaultWriteOptions()), nil
}

// SplitSupport returns, for every bipartition with support at least
// minSupport, its Newick-style description (the smaller side's taxa) and
// its support fraction, in decreasing support order.
type SplitSupport struct {
	// Taxa is the 1-side of the canonical split encoding.
	Taxa []string
	// Support is frequency / r.
	Support float64
	// MeanLength is the mean inducing-edge length (0 if unweighted).
	MeanLength float64
}

// Splits lists stored bipartitions with support ≥ minSupport, strongest
// first — the raw material for custom consensus or support annotation.
func (h *Hash) Splits(minSupport float64) ([]SplitSupport, error) {
	minFreq := int(minSupport * float64(h.h.NumTrees()))
	if minFreq < 1 {
		minFreq = 1
	}
	entries, err := h.h.Entries(minFreq)
	if err != nil {
		return nil, err
	}
	ts := h.h.Taxa()
	out := make([]SplitSupport, 0, len(entries))
	for _, e := range entries {
		if e.Support < minSupport {
			continue
		}
		idx := e.Bipartition.Mask().Indices()
		names := make([]string, len(idx))
		for i, j := range idx {
			names[i] = ts.Name(j)
		}
		out = append(out, SplitSupport{Taxa: names, Support: e.Support, MeanLength: e.MeanLength})
	}
	return out, nil
}
