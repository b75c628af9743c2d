package core

import (
	"errors"
	"fmt"
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

// ErrCanceled is returned (wrapped) by AverageRF when QueryOptions.Cancel
// fires; the results computed so far accompany it.
var ErrCanceled = errors.New("core: query canceled")

// probeMode selects how a prober walks the open-addressing table.
// Production probers always run probeAuto; the forced paths are the
// references the equivalence tests hold it to.
type probeMode int

const (
	// probeAuto probes scalar for small bipartition sets or
	// cache-resident tables, and switches to shard-ordered batches from
	// probeBatchMin splits once the table's footprint exceeds
	// probeBatchTableMin (locality only pays when probes miss cache).
	probeAuto probeMode = iota
	// probeScalar forces the per-bipartition probe loop.
	probeScalar
	// probeBatched forces shard-ordered batched probing.
	probeBatched
)

// probeBatchMin is the bipartition count from which probeAuto batches:
// below it the counting sort's fixed cost beats the locality win.
const probeBatchMin = 16

// probeBatchTableMin is the open-addressing footprint from which
// probeAuto batches. Shard-ordered probing only pays when scattered
// probes miss the CPU caches; below this size the whole table is
// cache-resident, every probe is cheap regardless of order, and the
// batch's scratch fill plus counting sort is pure overhead (measured
// ~2× slower on the bench-scale avian table).
const probeBatchTableMin = 4 << 20

// Prober performs repeated frequency lookups with no per-probe key
// allocation. Every query runs as one probe pass — fill looks up each
// bipartition once, in input order — followed by one fold per variant
// over the probed records. A Prober is not safe for concurrent use; give
// each goroutine its own.
type Prober struct {
	h *FreqHash

	// Query-side acceleration state: an optional shared result cache
	// keyed by topology fingerprint, the probe-path selector, and
	// per-prober scratch for fingerprinting and lookups (the record slice
	// of the scalar fill, the encoded-key buffer of the succinct backend,
	// and the batches of the shard-ordered fill).
	cache   *QueryCache
	probe   probeMode
	fp      fingerprinter
	entries []entry
	buf     []byte
	batch   bfhtable.ProbeBatch
	sbatch  bfhtable.SuccinctBatch
	// autoBatch memoizes probeAuto's table-footprint decision:
	// 0 undecided, +1 batch, -1 scalar (see Prober.batchAuto).
	autoBatch int8
}

// NewProber returns a prober bound to h with no cache attached and
// automatic probe-path selection.
func (h *FreqHash) NewProber() *Prober { return &Prober{h: h} }

// batchAuto reports whether probeAuto should take the batched path,
// deciding once per prober from the active table's footprint. Probers
// are created per query pass, so a table growing across passes (AddTree)
// re-evaluates naturally.
func (p *Prober) batchAuto() bool {
	if p.autoBatch == 0 {
		if p.h.FootprintBytes() >= probeBatchTableMin {
			p.autoBatch = 1
		} else {
			p.autoBatch = -1
		}
	}
	return p.autoBatch == 1
}

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
	// Cancel, when closed, stops feeding new queries. AverageRF drains
	// in-flight work and returns the results completed so far alongside
	// an error wrapping ErrCanceled — so a signal handler can flush a
	// valid checkpoint before exit.
	Cancel <-chan struct{}
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
// Results are in query order.
func (h *FreqHash) AverageRF(q collection.Source, opts QueryOptions) ([]Result, error) {
	if opts.Variant == Weighted && !h.weighted {
		return nil, fmt.Errorf("core: weighted variant requires branch lengths on every reference bipartition")
	}
	_, span := obs.StartSpan(nil, SpanQuery)
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
		cancel:          opts.Cancel,
	}
	dispatched, canceled, err := p.run(q, func(workers int) {
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
	if err != nil {
		return nil, err
	}
	return collectResults(outs, dispatched, canceled)
}

// collectResults merges per-worker partial results into one slice sorted
// by query index. dispatched[i] records whether query i was handed to a
// worker; unless the run was canceled, every dispatched query must have
// produced a result (the PR-4 no-silent-loss invariant). On cancellation
// the completed subset is returned alongside ErrCanceled.
func collectResults(outs [][]Result, dispatched []bool, canceled bool) ([]Result, error) {
	n := 0
	for _, part := range outs {
		n += len(part)
	}
	results := make([]Result, 0, n)
	for _, part := range outs {
		results = append(results, part...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	if canceled {
		return results, ErrCanceled
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
// per call. Small sets and cache-resident tables probe scalar; otherwise
// (per the prober's probeMode) keys are loaded into the batch scratch —
// raw words for open addressing, compressed encodings for succinct — and
// probed in shard-then-slot order for locality. Both paths return the
// same records in the same order, so every fold over them is
// bit-identical. The slice is scratch owned by the prober, valid until
// the next fill.
func (p *Prober) fill(bs []bipart.Bipartition) []entry {
	batched := p.probe == probeBatched ||
		(p.probe == probeAuto && len(bs) >= probeBatchMin && p.batchAuto())
	if batched {
		mProbeBatchSize.Observe(float64(len(bs)))
	}
	switch t := p.h.tbl.(type) {
	case *bfhtable.Table:
		nw := t.WordsPerKey()
		if batched {
			keys, hashes := p.batch.Reset(len(bs), nw)
			for i, b := range bs {
				if nw == 1 {
					keys[i] = b.Words()[0]
				} else {
					copy(keys[i*nw:(i+1)*nw], b.Words())
				}
				hashes[i] = b.Hash()
			}
			return t.LookupBatch(&p.batch, len(bs))
		}
		es := p.scratch(len(bs))
		if nw == 1 {
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
		if batched {
			p.sbatch.Reset()
			for _, b := range bs {
				t.BatchAppend(&p.sbatch, b.Hash(), b.Words())
			}
			return t.LookupBatch(&p.sbatch)
		}
		// Encode each query mask into the prober's scratch (no allocation
		// once warm); the (bucket, length) header resolves most misses
		// before any key bytes are read.
		es := p.scratch(len(bs))
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
		left := h.lenSum
		right := 0.0
		for i, b := range bs {
			if !b.HasLength {
				return 0, fmt.Errorf("query bipartition without branch length in weighted variant")
			}
			left -= es[i].LengthSum
			right += b.Length * (r - float64(es[i].Freq))
		}
		return (left + right) / r, nil
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
