package bfhsnap

import (
	"fmt"
	"io"
	"math"

	"repro/internal/bfhtable"
	"repro/internal/bipart"
	"repro/internal/core"
	"repro/internal/tree"
)

// Delta builds: append and/or retire reference trees against the current
// epoch and publish the result as a new epoch, rewriting only the part
// files whose shards the delta touched. The untouched parts are
// hard-linked from the base epoch (copy-on-write), so a small delta over
// a large collection costs a small write. The base epoch is marked
// obsolete and reaped once its last pin is released.

// DeltaResult reports what a delta build published.
type DeltaResult struct {
	Epoch        int // the new epoch number
	Base         int // the epoch the delta was applied to
	PartsWritten int // part files freshly serialized
	PartsLinked  int // part files reused via hard link
}

// Delta applies add/retire to a private copy of the current epoch's hash
// and publishes the result as the next epoch. filter and requireComplete
// mirror the build options the collection was created with. The update is
// sequential, so for an unweighted hash (and for a weighted one built
// with a deterministic accumulation order) the published epoch is
// bit-identical to a from-scratch build over the updated collection.
func (s *Store) Delta(add, retire []*tree.Tree, filter bipart.Filter, requireComplete bool) (DeltaResult, error) {
	var res DeltaResult
	base, err := s.Pin()
	if err != nil {
		return res, err
	}
	defer base.Release()
	h := base.Hash
	res.Base = base.N
	shards := h.NumShards()
	dirty := make([]bool, shards)

	// Extract every tree once and mark the shards its bipartitions land
	// in before mutating anything: over-marking merely rewrites an extra
	// part, under-marking would publish stale storage. The extractor
	// allocates fresh masks per tree, so the sets stay valid until folded.
	ex := &bipart.Extractor{Taxa: h.Taxa(), RequireComplete: requireComplete, Filter: filter}
	mark := func(trees []*tree.Tree) ([][]bipart.Bipartition, error) {
		sets := make([][]bipart.Bipartition, len(trees))
		for i, t := range trees {
			bs, err := ex.Extract(t)
			if err != nil {
				return nil, fmt.Errorf("bfhsnap: delta: %w", err)
			}
			for _, b := range bs {
				dirty[bfhtable.ShardIndex(b.Hash(), shards)] = true
			}
			sets[i] = bs
		}
		return sets, nil
	}
	adds, err := mark(add)
	if err != nil {
		return res, err
	}
	retires, err := mark(retire)
	if err != nil {
		return res, err
	}

	for _, bs := range adds {
		h.AddSplits(bs)
	}
	for _, bs := range retires {
		if err := h.RemoveSplits(bs); err != nil {
			return res, fmt.Errorf("bfhsnap: delta retire: %w", err)
		}
	}

	// Publish with the base epoch's partition so clean parts stay
	// byte-identical and can be hard-linked.
	man := manifestFor(h)
	man.Parts = append([]ManifestPart(nil), base.Manifest.Parts...)
	parts := make([]partSource, 0, len(man.Parts))
	for _, p := range man.Parts {
		touched := false
		for sh := p.From; sh < p.To; sh++ {
			if dirty[sh] {
				touched = true
				break
			}
		}
		if !touched {
			parts = append(parts, partSource{name: p.File, linkFrom: s.PartPath(base.N, p)})
			res.PartsLinked++
			continue
		}
		from, to := p.From, p.To
		parts = append(parts, partSource{name: p.File, write: func(w io.Writer) error {
			_, werr := WriteStream(w, h, from, to)
			return werr
		}})
		res.PartsWritten++
	}
	n, err := s.publish(man, parts)
	if err != nil {
		return res, err
	}
	res.Epoch = n
	s.markObsolete(base.N)
	return res, nil
}

// VerifyAgainst cross-checks a loaded epoch hash against an independently
// built one: identical fingerprints, totals, and exact weighted sums.
// The equivalence wall uses it to assert delta-merged epochs match a
// from-scratch build bit for bit.
func VerifyAgainst(got, want *core.FreqHash) error {
	switch {
	case got.NumTrees() != want.NumTrees():
		return fmt.Errorf("bfhsnap: %d trees vs %d", got.NumTrees(), want.NumTrees())
	case got.TotalBipartitions() != want.TotalBipartitions():
		return fmt.Errorf("bfhsnap: %d bipartition instances vs %d", got.TotalBipartitions(), want.TotalBipartitions())
	case got.UniqueBipartitions() != want.UniqueBipartitions():
		return fmt.Errorf("bfhsnap: %d unique bipartitions vs %d", got.UniqueBipartitions(), want.UniqueBipartitions())
	case math.Float64bits(got.TotalLengthSum()) != math.Float64bits(want.TotalLengthSum()):
		return fmt.Errorf("bfhsnap: length sum %x vs %x", got.TotalLengthSum(), want.TotalLengthSum())
	case got.Fingerprint() != want.Fingerprint():
		return fmt.Errorf("bfhsnap: fingerprint %016x vs %016x", got.Fingerprint(), want.Fingerprint())
	}
	return nil
}
