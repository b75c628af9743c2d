package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// The equivalence wall: every path a query can take — open-addressing or
// succinct backend, cache attached or not — must produce the same float64
// bit pattern for the same query. "Close enough" is not enough: the cache
// stores the uncached fold's exact bits and the distributed coordinator
// deduplicates by fingerprint, so a single ULP of divergence anywhere
// would surface as run-to-run nondeterminism downstream.

// equivQueries builds a query mix that stresses the cache's identity
// notion: exact repeats (must hit), NNI perturbations (must not alias),
// and label-permuted isomorphic twins (same shape, different bipartition
// sets — the classic aliasing trap).
func equivQueries(trees []*tree.Tree, ts *taxa.Set, rng *rand.Rand) []*tree.Tree {
	var qs []*tree.Tree
	for i := 0; i < 8; i++ {
		base := trees[i%len(trees)]
		qs = append(qs, base)                            // exact repeat of a reference
		qs = append(qs, simphy.PerturbNNI(base, 2, rng)) // near miss
		qs = append(qs, permuteLabels(base, ts, i+1))    // isomorphic twin
	}
	// Repeat the whole mix so every fingerprint recurs.
	return append(qs, qs...)
}

// permuteLabels clones a tree and rotates its leaf labels by k positions
// in the catalogue, producing an isomorphic tree over the same taxa with
// (generically) different bipartitions.
func permuteLabels(t *tree.Tree, ts *taxa.Set, k int) *tree.Tree {
	c := t.Clone()
	n := ts.Len()
	c.Postorder(func(nd *tree.Node) {
		if len(nd.Children) == 0 {
			id, ok := ts.Index(nd.Name)
			if !ok {
				panic("equiv test: leaf not in catalogue")
			}
			nd.Name = ts.Name((id + k) % n)
		}
	})
	return c
}

// equivConfig is one cell of the wall.
type equivConfig struct {
	name    string
	backend Backend
	cached  bool
}

func equivConfigs() []equivConfig {
	var cs []equivConfig
	for _, b := range []struct {
		name string
		b    Backend
	}{{"oa", BackendOpenAddressing}, {"succ", BackendSuccinct}, {"auto", BackendAuto}} {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("%s/cached=%v", b.name, cached)
			cs = append(cs, equivConfig{name: name, backend: b.b, cached: cached})
		}
	}
	return cs
}

// TestCacheEquivalenceWall runs the full query mix through every
// backend × cache cell and every variant. Within a backend, the cached
// answers must match the uncached ones bit for bit — that is the cache's
// contract. Across
// backends every variant must also agree bit for bit: Plain, Normalized
// and Weighted fold integers (Weighted's length sums are int64 quanta,
// whatever order each backend inserted them in) and end in one division
// of identical operands, and Info's hash-wide mass is summed per split
// size, independent of table order.
func TestCacheEquivalenceWall(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{12, 48, 100, 130} { // spans 1- and 3-word masks
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			trees, ts := randomCollection(int64(n)*3+1, n, 40)
			// Randomize branch lengths so Weighted sums distinct terms,
			// which would expose any order dependence.
			for _, tr := range trees {
				tr.Postorder(func(nd *tree.Node) {
					if nd.Parent != nil {
						nd.Length = rng.Float64()*2 + 0.01
						nd.HasLength = true
					}
				})
			}
			qs := equivQueries(trees, ts, rng)

			variants := []Variant{Plain, Normalized, Weighted, Info}
			// crossBaseline: the open-addressing backend's uncached
			// answers, the reference for cross-backend comparisons. backendBaseline is
			// re-derived per backend for the bit-identity checks.
			crossBaseline := make(map[Variant][]float64)
			hashes := map[Backend]*FreqHash{}
			for _, b := range []Backend{BackendOpenAddressing, BackendSuccinct, BackendAuto} {
				h, err := Build(collection.FromTrees(trees), ts, BuildOptions{
					RequireComplete: true, Backend: b,
				})
				if err != nil {
					t.Fatal(err)
				}
				hashes[b] = h
			}
			for _, v := range variants {
				crossBaseline[v] = equivAnswers(t, hashes[BackendOpenAddressing], qs, QueryOptions{
					RequireComplete: true, Variant: v,
				})
			}

			backendBaseline := map[Backend]map[Variant][]float64{}
			for _, cfg := range equivConfigs() {
				h := hashes[cfg.backend]
				base, ok := backendBaseline[cfg.backend]
				if !ok {
					base = make(map[Variant][]float64)
					for _, v := range variants {
						base[v] = equivAnswers(t, h, qs, QueryOptions{
							RequireComplete: true, Variant: v,
						})
					}
					backendBaseline[cfg.backend] = base
				}
				for _, v := range variants {
					opts := QueryOptions{RequireComplete: true, Variant: v}
					if cfg.cached {
						opts.Cache = NewQueryCache(0, 0)
					}
					got := equivAnswers(t, h, qs, opts)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(base[v][i]) {
							t.Fatalf("%s/%v: query %d = %v (bits %x), backend uncached baseline %v (bits %x)",
								cfg.name, v, i, got[i], math.Float64bits(got[i]),
								base[v][i], math.Float64bits(base[v][i]))
						}
						if math.Float64bits(got[i]) != math.Float64bits(crossBaseline[v][i]) {
							t.Fatalf("%s/%v: query %d = %v (bits %x), openaddr baseline %v (bits %x)",
								cfg.name, v, i, got[i], math.Float64bits(got[i]),
								crossBaseline[v][i], math.Float64bits(crossBaseline[v][i]))
						}
					}
					if cfg.cached && (v == Plain || v == Normalized) {
						if st := opts.Cache.Stats(); st.Hits == 0 {
							t.Errorf("%s/%v: repeat-laden mix produced no cache hits", cfg.name, v)
						}
					}
				}
			}
		})
	}
}

// equivAnswers runs the query mix through one prober configuration and
// returns the answers in query order.
func equivAnswers(t *testing.T, h *FreqHash, qs []*tree.Tree, opts QueryOptions) []float64 {
	t.Helper()
	ex := &bipart.Extractor{Taxa: h.taxa, RequireComplete: true}
	p := h.proberFor(opts)
	out := make([]float64, len(qs))
	for i, q := range qs {
		bs, err := ex.Extract(q)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := p.AverageRFOfSplits(bs, opts.Variant)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = avg
	}
	return out
}

// TestCacheNoIsomorphicAliasing pins the aliasing trap directly: an
// isomorphic label-permuted twin must never be answered from the
// original's cache entry, even when queried back to back.
func TestCacheNoIsomorphicAliasing(t *testing.T) {
	trees, ts := randomCollection(23, 30, 25)
	h := buildHash(t, trees, ts)
	cache := NewQueryCache(0, 0)
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	for i, base := range trees[:10] {
		twin := permuteLabels(base, ts, i+1)
		bsBase, err := ex.Extract(base)
		if err != nil {
			t.Fatal(err)
		}
		bsTwin, err := ex.Extract(twin)
		if err != nil {
			t.Fatal(err)
		}
		if TopologyFingerprint(bsBase) == TopologyFingerprint(bsTwin) {
			// The rotation happened to be an automorphism; no aliasing risk.
			continue
		}
		p := h.NewProber()
		p.SetCache(cache)
		a1, err := p.AverageRFOfSplits(bsBase, Plain)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := p.AverageRFOfSplits(bsTwin, Plain)
		if err != nil {
			t.Fatal(err)
		}
		want, err := h.AverageRFOfSplits(bsTwin, Plain)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a2) != math.Float64bits(want) {
			t.Fatalf("tree %d: twin answered %v through cache, want %v (base %v)", i, a2, want, a1)
		}
	}
}
