package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"repro/internal/bfhtable"
	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Variant selects the RF flavour computed against the hash. Because the
// hash stores untransformed bipartitions with exact frequencies, each
// variant is a different fold over the same structure — the extensibility
// property the paper emphasizes (§VII.F).
type Variant int

const (
	// Plain is the traditional symmetric-difference count (paper Eq. 1).
	Plain Variant = iota
	// Normalized divides Plain by the maximum RF between two binary trees
	// on n taxa, 2(n−3), yielding values in [0, 1].
	Normalized
	// Weighted sums branch lengths of unshared bipartitions instead of
	// counting them (the hash-decomposable weighted-RF generalization):
	// wRF(T,T') = Σ_{b∈B(T)\B(T')} len_T(b) + Σ_{b∈B(T')\B(T)} len_T'(b).
	Weighted
	// Info weights each unshared bipartition by its phylogenetic
	// information content (see info.go): the information-theoretic
	// generalized RF of the paper's future work (§IX).
	Info
)

// String names the variant for diagnostics and CLI flags.
func (v Variant) String() string {
	switch v {
	case Plain:
		return "plain"
	case Normalized:
		return "normalized"
	case Weighted:
		return "weighted"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Prober performs repeated frequency lookups with no per-probe key
// allocation. Every query runs as one probe pass — fill looks up each
// bipartition once, in input order — followed by one fold per variant
// over the probed records. A Prober is not safe for concurrent use; give
// each goroutine its own.
type Prober struct {
	h *FreqHash

	// Query-side acceleration state: an optional shared result cache
	// keyed by topology fingerprint, and per-prober scratch for
	// fingerprinting and lookups (the record slice of the fill and the
	// encoded-key buffer of the succinct backend).
	cache   *QueryCache
	fp      fingerprinter
	entries []entry
	buf     []byte
}

// NewProber returns a prober bound to h with no cache attached.
func (h *FreqHash) NewProber() *Prober { return &Prober{h: h} }

// QueryOptions configure the query phase (the second loop of Algorithm 2).
type QueryOptions struct {
	// Workers is the number of goroutines comparing trees against the
	// hash. 0 selects GOMAXPROCS.
	Workers int
	// Filter optionally drops query bipartitions before comparison. For
	// meaningful distances use the same filter as at build time.
	Filter bipart.Filter
	// Variant selects the RF flavour (Plain by default).
	Variant Variant
	// RequireComplete rejects query trees not covering the catalogue.
	RequireComplete bool
	// Skip, when set, elides queries whose index it reports true for: the
	// tree is still consumed from the source (streams have no seek) but
	// never compared, and no Result is produced for it. Checkpoint resume
	// uses this to avoid recomputing finished trees. With Skip set, the
	// returned slice is compacted — ascending in Index, gaps where skipped.
	Skip func(idx int) bool
	// OnResult, when set, observes each result as soon as a worker
	// produces it (out of order). It may be called from multiple
	// goroutines concurrently; checkpoint writers serialize internally.
	OnResult func(Result)
	// Context, when set, parents the query's span and stops the run when
	// it ends: AverageRF stops reading new queries, drains in-flight work
	// and returns the results completed so far alongside an error
	// wrapping the context's error — so a signal handler can flush a
	// valid checkpoint before exit. Nil means context.Background().
	Context context.Context
	// Cache, when set, answers exact topological repeats from the shared
	// query-result cache instead of re-probing the hash. Only the Plain
	// and Normalized variants consult it (Weighted results depend on
	// branch lengths, which the topology fingerprint ignores; Info always
	// recomputes). Cached answers are bit-identical to recomputation.
	Cache *QueryCache
}

func (o QueryOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// proberFor returns a prober carrying the options' cache.
// The cache may be shared across probers (it locks internally); the
// prober itself remains single-goroutine state.
func (h *FreqHash) proberFor(opts QueryOptions) *Prober {
	p := h.NewProber()
	p.cache = opts.Cache
	return p
}

// SetCache attaches (or, with nil, detaches) a shared query-result cache.
func (p *Prober) SetCache(c *QueryCache) { p.cache = c }

// Result is the average distance of one query tree to the reference
// collection.
type Result struct {
	// Index is the query tree's position in Q.
	Index int
	// AvgRF is (RFleft + RFright) / r in the selected variant's units.
	AvgRF float64
}

// AverageRF streams the query collection and computes each tree's average
// RF distance to the reference collection via tree-vs-hash comparison.
// Results are in query order. A collection with no tree is an error, as
// it is for Build.
func (h *FreqHash) AverageRF(q collection.Source, opts QueryOptions) ([]Result, error) {
	if opts.Variant == Weighted && !h.weighted {
		return nil, fmt.Errorf("core: weighted variant requires branch lengths on every reference bipartition")
	}
	ctx, span := obs.StartSpan(opts.Context, SpanQuery)
	defer span.End()
	if span.Recorded() {
		span.SetAttr("variant", opts.Variant)
		span.SetAttr("fingerprint", fmt.Sprintf("%016x", h.Fingerprint()))
		span.SetAttr("cache", opts.Cache != nil)
		if opts.Cache != nil {
			// Process-global counters; the deltas are exact when one query
			// pass runs at a time, an upper bound under concurrency.
			hits0, misses0 := mCacheHits.Value(), mCacheMisses.Value()
			defer func() {
				span.SetAttr("cache_hits", mCacheHits.Value()-hits0)
				span.SetAttr("cache_misses", mCacheMisses.Value()-misses0)
			}()
		}
	}
	var probers []*Prober
	var outs [][]Result
	p := pool{
		kind:            "query",
		workers:         opts.workers(),
		taxa:            h.taxa,
		filter:          opts.Filter,
		requireComplete: opts.RequireComplete,
		skip:            opts.Skip,
	}
	dispatched, err := p.run(ctx, q, func(workers int) {
		probers, outs = make([]*Prober, workers), make([][]Result, workers)
		for w := range probers {
			probers[w] = h.proberFor(opts)
		}
	}, func(w, idx int, bs []bipart.Bipartition) error {
		avg, err := probers[w].AverageRFOfSplits(bs, opts.Variant)
		if err != nil {
			return err
		}
		r := Result{Index: idx, AvgRF: avg}
		if opts.OnResult != nil {
			opts.OnResult(r)
		}
		outs[w] = append(outs[w], r)
		return nil
	})
	// A stopped pass wraps ctx.Err() and keeps its partial results; any
	// other failure drops them.
	if err != nil && !errors.Is(err, ctx.Err()) {
		return nil, err
	}
	if err == nil && len(dispatched) == 0 {
		return nil, fmt.Errorf("core: query collection is empty")
	}
	return collectResults(outs, dispatched, err)
}

// collectResults merges per-worker partial results into one slice sorted
// by query index. dispatched[i] records whether query i was handed to a
// worker; unless the run was stopped, every dispatched query must have
// produced a result (the no-silent-loss invariant). A stopped run
// returns the completed subset alongside stopped.
func collectResults(outs [][]Result, dispatched []bool, stopped error) ([]Result, error) {
	n := 0
	for _, part := range outs {
		n += len(part)
	}
	results := make([]Result, 0, n)
	for _, part := range outs {
		results = append(results, part...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	if stopped != nil {
		return results, stopped
	}
	got := make([]bool, len(dispatched))
	for _, r := range results {
		if r.Index < len(got) {
			got[r.Index] = true
		}
	}
	for i, want := range dispatched {
		if want && !got[i] {
			return nil, fmt.Errorf("core: query tree %d produced no result", i)
		}
	}
	return results, nil
}

// AverageRFOne computes the average distance of a single tree against the
// hash — one tree-vs-hash comparison.
func (h *FreqHash) AverageRFOne(t *tree.Tree, opts QueryOptions) (float64, error) {
	if opts.Variant == Weighted && !h.weighted {
		return 0, fmt.Errorf("core: weighted variant requires branch lengths on every reference bipartition")
	}
	ex := &bipart.Extractor{
		Taxa:            h.taxa,
		RequireComplete: opts.RequireComplete,
		Filter:          opts.Filter,
	}
	bs, err := ex.Extract(t)
	if err != nil {
		return 0, err
	}
	return h.proberFor(opts).AverageRFOfSplits(bs, opts.Variant)
}

// AverageRFOfSplits computes the average RF of a query tree given its
// already-extracted bipartition set — the pure probe phase of Algorithm 2.
// Exposed (here and on Prober for allocation-free repetition) so backend
// ablations can measure lookup cost in isolation from parsing and
// extraction.
func (h *FreqHash) AverageRFOfSplits(bs []bipart.Bipartition, v Variant) (float64, error) {
	return h.NewProber().AverageRFOfSplits(bs, v)
}

// AverageRFOfSplits is Algorithm 2's probe loop over a pre-extracted
// bipartition set, through the prober's allocation-free lookup path.
// With a cache attached (SetCache / QueryOptions.Cache), Plain and
// Normalized queries are first looked up by topology fingerprint, so an
// exact topological repeat skips the probe pass entirely; its cached
// answer is the identical bit pattern the probe pass produced.
func (p *Prober) AverageRFOfSplits(bs []bipart.Bipartition, v Variant) (float64, error) {
	if c := p.cache; c != nil && (v == Plain || v == Normalized) {
		k := p.fp.key(bs)
		if avg, ok := c.Get(k, v); ok {
			RecordQueries(1, 0, 0)
			return avg, nil
		}
		avg, err := p.averageRFUncached(bs, v)
		if err != nil {
			return 0, err
		}
		c.Put(k, v, avg)
		return avg, nil
	}
	return p.averageRFUncached(bs, v)
}

// averageRFUncached is one probe pass plus the variant's fold.
func (p *Prober) averageRFUncached(bs []bipart.Bipartition, v Variant) (float64, error) {
	es := p.fill(bs)
	hits, misses := tally(es)
	avg, err := p.h.fold(bs, es, hits, v)
	if err != nil {
		return 0, err
	}
	RecordQueries(1, len(bs), misses)
	return avg, nil
}

// Hits probes bs and returns Σ freq[b] over its bipartitions and the
// number that missed — the partial sum a distributed shard contributes
// to RFleft and RFright (internal/distrib).
func (p *Prober) Hits(bs []bipart.Bipartition) (hits int64, misses int) {
	return tally(p.fill(bs))
}

// tally sums the probed frequencies and counts the misses.
func tally(es []entry) (hits int64, misses int) {
	for i := range es {
		f := int64(es[i].Freq)
		if f == 0 {
			misses++
		}
		hits += f
	}
	return hits, misses
}

// fill is the probe pass: the stored record of every bipartition of bs,
// in bs's order (zero records for misses). The engine dispatch runs once
// per call, then each bipartition is probed with its precomputed hash.
// The slice is scratch owned by the prober, valid until the next fill.
func (p *Prober) fill(bs []bipart.Bipartition) []entry {
	es := p.scratch(len(bs))
	switch t := p.h.tbl.(type) {
	case *bfhtable.Table:
		if t.WordsPerKey() == 1 {
			for i, b := range bs {
				es[i], _ = t.Lookup1Hashed(b.Hash(), b.Words()[0])
			}
		} else {
			for i, b := range bs {
				es[i], _ = t.LookupHashed(b.Hash(), b.Words())
			}
		}
		return es
	case *bfhtable.SuccinctTable:
		// Encode each query mask into the prober's scratch (no allocation
		// once warm); the (bucket, length) header resolves most misses
		// before any key bytes are read.
		var meta uint32
		for i, b := range bs {
			p.buf, meta = t.AppendEncoded(p.buf[:0], b.Words())
			es[i], _ = t.LookupEncoded(b.Hash(), p.buf, meta)
		}
		return es
	}
	panic("core: unknown hash storage engine")
}

// scratch returns the prober's record buffer resized to n.
func (p *Prober) scratch(n int) []entry {
	if cap(p.entries) < n {
		p.entries = make([]entry, n)
	}
	return p.entries[:n]
}

// fold is Algorithm 2's per-query arithmetic: es[i] is the stored record
// of bs[i], hits is tally(es), and each variant is a different fold over
// the same records — the extensibility property the paper emphasizes
// (§VII.F).
func (h *FreqHash) fold(bs []bipart.Bipartition, es []entry, hits int64, v Variant) (float64, error) {
	r := float64(h.numTrees)
	switch v {
	case Plain, Normalized:
		// RFleft starts at sumBFHR and loses each query bipartition's
		// frequency; RFright adds r − freq per query bipartition. Integer
		// arithmetic, so the order of the records never matters.
		rfLeft := int64(h.sum) - hits
		rfRight := int64(len(es))*int64(h.numTrees) - hits
		avg := float64(rfLeft+rfRight) / r
		if v == Normalized {
			maxRF := 2 * (h.taxa.Len() - 3)
			if maxRF <= 0 {
				return 0, nil
			}
			avg /= float64(maxRF)
		}
		return avg, nil
	case Weighted:
		// Left term: total reference length mass minus the mass of
		// bipartitions matched by the query. Right term: each query
		// bipartition's own length once per reference tree lacking it.
		// Exact in 128-bit quanta, rounded once by the final division.
		var num int128
		num.addMul(h.lenSum, 1)
		for i, b := range bs {
			if !b.HasLength {
				return 0, fmt.Errorf("query bipartition without branch length in weighted variant")
			}
			num.addMul(es[i].LengthSum, -1)
			num.addMul(b.Quanta, int64(h.numTrees)-int64(es[i].Freq))
		}
		return num.float64() / (bipart.QuantaPerUnit * r), nil
	case Info:
		// The weighted fold with each bipartition's information content
		// in place of its branch length (see info.go).
		table, icSum := h.infoState()
		n := h.taxa.Len()
		left := icSum
		right := 0.0
		for i, b := range bs {
			hb := table.info(n, b.Size())
			f := float64(es[i].Freq)
			left -= f * hb
			right += hb * (r - f)
		}
		avg := (left + right) / r
		if avg < 0 {
			// Guard the floating-point dust that subtraction of equal
			// masses can leave behind; true distances are never negative.
			avg = 0
		}
		return avg, nil
	default:
		return 0, fmt.Errorf("unknown variant %v", v)
	}
}

// Best returns the result with the lowest average RF — the
// most-parsimonious candidate under the RF optimality criterion, the
// selection problem that motivates the paper's introduction.
func Best(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("core: no results")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.AvgRF < best.AvgRF {
			best = r
		}
	}
	return best, nil
}

// int128 is a two's-complement 128-bit integer, the Weighted fold's
// exact accumulator.
type int128 struct{ hi, lo uint64 }

// addMul adds x·y: the unsigned product of the two's-complement words,
// less y·2⁶⁴ when x < 0 and x·2⁶⁴ when y < 0, is the signed product.
func (a *int128) addMul(x, y int64) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	hi -= uint64(x>>63)&uint64(y) + uint64(y>>63)&uint64(x)
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi += hi + c
}

// float64 rounds a to the nearest float64 when it fits in an int64, and
// to within a few units in the last place otherwise.
func (a int128) float64() float64 {
	if int64(a.hi) == int64(a.lo)>>63 {
		return float64(int64(a.lo))
	}
	return float64(int64(a.hi))*0x1p64 + float64(a.lo)
}
