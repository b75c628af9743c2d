package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bfhtable"
	"repro/internal/bipart"
	"repro/internal/bitset"
	"repro/internal/taxa"
)

// entry is the per-bipartition record of the BFH. Freq is the number of
// reference trees containing the bipartition; LengthSum accumulates the
// inducing edges' branch lengths, in quanta, for the weighted-RF variant; Size is the
// popcount of the canonical mask, kept so size-dependent variants
// (information content) never need to decode keys. It is the open-addressing
// table's record type so entries move between backends without conversion.
type entry = bfhtable.Entry

// Backend selects the storage engine behind the frequency hash.
type Backend int

const (
	// BackendAuto picks the open-addressing table, or the succinct table
	// once raw keys reach autoSuccinctKeyBytes.
	BackendAuto Backend = iota
	// BackendOpenAddressing is the zero-allocation word-keyed table
	// (internal/bfhtable): bipartitions are hashed and stored as their raw
	// mask words, no key string ever materializes, and build workers merge
	// shard-parallel. The default.
	BackendOpenAddressing
	// BackendSuccinct is the compressed-key open-addressing table
	// (bfhtable.SuccinctTable): keys live in a variable-length arena under
	// the raw/sparse/cosparse/dictionary encoding — the §IX lossless key
	// compression — probes filter on a packed (popcount bucket, length)
	// header, and the arena shrinks from n/8 bytes per key to the encoded
	// size: the huge-n engine. Auto-selected when the estimated raw key
	// width reaches autoSuccinctKeyBytes.
	BackendSuccinct
)

// String names the backend for diagnostics and CLI flags.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendOpenAddressing:
		return "openaddr"
	case BackendSuccinct:
		return "succinct"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend inverts Backend.String (empty selects auto).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "openaddr", "oa":
		return BackendOpenAddressing, nil
	case "succinct", "succ":
		return BackendSuccinct, nil
	case "map":
		return 0, fmt.Errorf("core: the map hash backend was removed; compressed keys are the succinct backend (want auto, openaddr or succinct)")
	}
	return 0, fmt.Errorf("core: unknown hash backend %q (want auto, openaddr or succinct)", s)
}

// store is the storage engine behind a FreqHash. Both engines —
// *bfhtable.Table and *bfhtable.SuccinctTable — implement it directly;
// code that needs an engine-specific fast path (the query prober's fill,
// snapshot writers) type-switches once per call, never per bipartition.
type store interface {
	Add(words []uint64, size uint32, length int64)
	AddEntry(words []uint64, e entry)
	Dec(words []uint64, length int64) bool
	Lookup(words []uint64) (entry, bool)
	Len() int
	NumShards() int
	Range(fn func(words []uint64, e entry) bool)
	RangeShard(s int, fn func(words []uint64, e entry) bool) bool
	FootprintBytes() int64
	LoadFactor() float64
	ProbeLengths(fn func(displacement int))
	Totals() (sum uint64, lenSum int64, lenAbs uint64)
}

// newStore returns an empty engine of backend b (already resolved, never
// BackendAuto) over ts with the given shard count.
func newStore(b Backend, ts *taxa.Set, shards int) store {
	if b == BackendSuccinct {
		return bfhtable.NewSuccinct(ts.Len(), shards)
	}
	return bfhtable.New(wordsPerKey(ts), shards)
}

// FreqHash is the bipartition frequency hash BFH_R: a collision-free map
// from canonical bipartition encodings to their frequency across the
// reference collection. It is immutable after Build and safe for
// concurrent readers.
type FreqHash struct {
	taxa *taxa.Set
	tbl  store
	// sum is Σ_b freq[b] — the paper's sumBFHR.
	sum uint64
	// lenSum is Σ_b lengthSum[b] in quanta, for the weighted variant's left term.
	lenSum int64
	lenAbs lenBudget
	// numTrees is r, the number of reference trees folded in.
	numTrees int
	// weighted records whether every indexed bipartition carried a length.
	weighted bool

	// mu guards the lazily built information-content state below and the
	// incremental-update path; of the query folds only Info takes it, once
	// per query, to read that state.
	mu      sync.Mutex
	icTable splitInfoTable
	icSum   float64
}

// Backend reports which storage engine the hash uses.
func (h *FreqHash) Backend() Backend {
	if _, ok := h.tbl.(*bfhtable.SuccinctTable); ok {
		return BackendSuccinct
	}
	return BackendOpenAddressing
}

// Taxa returns the catalogue the hash is encoded over.
func (h *FreqHash) Taxa() *taxa.Set { return h.taxa }

// NumTrees returns r, the number of reference trees.
func (h *FreqHash) NumTrees() int { return h.numTrees }

// UniqueBipartitions returns the number of distinct bipartitions stored —
// the quantity that actually bounds BFHRF's memory (paper §VII.C).
func (h *FreqHash) UniqueBipartitions() int { return h.tbl.Len() }

// FootprintBytes reports the resident size of the hash's storage engine
// (exact array and arena sizes). Exposed so memprof measurements over
// pre-built hashes can include the table the measured region probes (see
// memprof.MeasureNWith).
func (h *FreqHash) FootprintBytes() int64 { return h.tbl.FootprintBytes() }

// TotalBipartitions returns sumBFHR, the total bipartition instances.
func (h *FreqHash) TotalBipartitions() uint64 { return h.sum }

// Weighted reports whether every reference bipartition carried a branch
// length (required by the weighted-RF variant).
func (h *FreqHash) Weighted() bool { return h.weighted }

// Fingerprint returns a deterministic identity of the built hash: FNV-1a
// over the taxa catalogue, the tree count, sumBFHR, and the unique
// bipartition count. Two hashes built from the same reference collection
// (any worker count, any backend) agree; any change to the references —
// a different file, trees skipped by lenient ingest, different taxa —
// disagrees with overwhelming probability. Checkpoint resume uses it to
// refuse mixing results computed against different reference sets.
// Deliberately excluded: lenSum, so existing epochs and checkpoints keep
// their fingerprints, and the backend choice (it does not affect results).
func (h *FreqHash) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	fp := uint64(offset64)
	mix := func(b byte) { fp = (fp ^ uint64(b)) * prime64 }
	mixU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	for i := 0; i < h.taxa.Len(); i++ {
		for _, b := range []byte(h.taxa.Name(i)) {
			mix(b)
		}
		mix(0)
	}
	mixU64(uint64(h.numTrees))
	mixU64(h.sum)
	mixU64(uint64(h.UniqueBipartitions()))
	return fp
}

// entryOf returns b's stored record (zero entry if absent). Hot loops
// use a Prober instead.
func (h *FreqHash) entryOf(b bipart.Bipartition) entry {
	e, _ := h.tbl.Lookup(b.Words())
	return e
}

// Frequency returns the frequency of b over the reference collection
// (0 if absent, per the paper's convention BFH_R[b] = 0).
func (h *FreqHash) Frequency(b bipart.Bipartition) int {
	return int(h.entryOf(b).Freq)
}

// SupportOf returns freq/r, the fraction of reference trees containing b.
func (h *FreqHash) SupportOf(b bipart.Bipartition) float64 {
	if h.numTrees == 0 {
		return 0
	}
	return float64(h.Frequency(b)) / float64(h.numTrees)
}

// Entry describes one stored bipartition for inspection and consensus.
type Entry struct {
	Bipartition bipart.Bipartition
	Frequency   int
	// Support is Frequency / r.
	Support float64
	// MeanLength is LengthSum / Frequency when lengths were tracked.
	MeanLength float64
}

// forEachEntry yields every stored live bipartition's canonical mask and
// record, in unspecified order. The mask is freshly decoded and owned by fn.
func (h *FreqHash) forEachEntry(fn func(mask *bitset.Bits, e entry)) error {
	var decodeErr error
	h.tbl.Range(func(words []uint64, e entry) bool {
		mask, err := bitset.FromWords(words, h.taxa.Len())
		if err != nil {
			decodeErr = fmt.Errorf("core: corrupt hash words: %w", err)
			return false
		}
		fn(mask, e)
		return true
	})
	return decodeErr
}

// Entries returns every stored bipartition with frequency at least
// minFreq, sorted by descending frequency (ties broken by key for
// determinism). minFreq <= 1 returns everything.
func (h *FreqHash) Entries(minFreq int) ([]Entry, error) {
	if minFreq < 1 {
		minFreq = 1
	}
	out := make([]Entry, 0, h.UniqueBipartitions())
	err := h.forEachEntry(func(mask *bitset.Bits, e entry) {
		if int(e.Freq) < minFreq {
			return
		}
		ent := Entry{
			Bipartition: bipart.FromMask(mask, 0),
			Frequency:   int(e.Freq),
			Support:     float64(e.Freq) / float64(h.numTrees),
		}
		if e.Freq > 0 {
			ent.MeanLength = float64(e.LengthSum) / (bipart.QuantaPerUnit * float64(e.Freq))
		}
		out = append(out, ent)
	})
	if err != nil {
		return nil, err
	}
	// Tie-break on the canonical (uncompressed) encoding so the order — and
	// anything derived from it, like the greedy consensus — is identical
	// across backends.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frequency != out[j].Frequency {
			return out[i].Frequency > out[j].Frequency
		}
		return out[i].Bipartition.Key() < out[j].Bipartition.Key()
	})
	return out, nil
}

// KeySizes returns the byte length of every stored key, for memory
// accounting (the §IX compression ablation). The open-addressing backend
// stores fixed-width word keys, so every length is WordsPerKey()*8; the
// succinct backend reports each key's encoded arena length.
func (h *FreqHash) KeySizes() []int {
	out := make([]int, 0, h.tbl.Len())
	switch t := h.tbl.(type) {
	case *bfhtable.Table:
		nb := t.WordsPerKey() * 8
		for i := 0; i < t.Len(); i++ {
			out = append(out, nb)
		}
	case *bfhtable.SuccinctTable:
		for s := 0; s < t.NumShards(); s++ {
			t.RangeShardEncoded(s, func(enc []byte, e entry) bool {
				out = append(out, len(enc))
				return true
			})
		}
	}
	return out
}

// NumShards returns the storage engine's shard count.
func (h *FreqHash) NumShards() int { return h.tbl.NumShards() }

// RangeShardRaw iterates one shard's live entries as raw mask words. The
// words slice is only valid during the call.
func (h *FreqHash) RangeShardRaw(shard int, fn func(words []uint64, e entry) bool) {
	h.tbl.RangeShard(shard, fn)
}

// OpenAddr returns the open-addressing backend's table, or nil when the
// succinct backend is active. Snapshot writers use it to reach shard
// storage.
func (h *FreqHash) OpenAddr() *bfhtable.Table {
	t, _ := h.tbl.(*bfhtable.Table)
	return t
}

// Succinct returns the succinct backend's table, or nil when the
// open-addressing backend is active. The snapshot writer uses it to
// serialize the compressed arena and its dictionary without decoding
// keys.
func (h *FreqHash) Succinct() *bfhtable.SuccinctTable {
	t, _ := h.tbl.(*bfhtable.SuccinctTable)
	return t
}

// invalidateDerived drops lazily computed state after a mutation.
func (h *FreqHash) invalidateDerived() {
	h.mu.Lock()
	h.icTable = nil
	h.icSum = 0
	h.mu.Unlock()
}
