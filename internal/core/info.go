package core

import "math"

// This file implements the information-content generalized RF — the style
// of "generalized Robinson-Foulds" the paper's future work targets (§IX,
// citing Wilkinson's information content [17] and Smith's information
// theoretic generalizations [19]).
//
// The phylogenetic information content of a split dividing n taxa into
// sides of a and n−a is h = −log₂ P(split), where P(split) is the fraction
// of unrooted binary n-trees containing it:
//
//	P = (2a−3)!! · (2(n−a)−3)!! / (2n−5)!!
//
// Rare (balanced) splits carry more information than shallow ones. The
// information-weighted distance replaces the unit count of each unshared
// bipartition with its information content:
//
//	icRF(T,T') = Σ_{b ∈ B(T) Δ B(T')} h(b)
//
// which decomposes over the frequency hash exactly like the weighted
// variant: left term from the total information mass of the hash, right
// term per query split. The fold itself is the Info case of
// FreqHash.fold (query.go), so information-weighted queries run through
// AverageRF like every other variant.

// splitInfoTable holds lg₂(2k−3)!! for k = 0..n, so h(a) is three lookups.
type splitInfoTable []float64

func newSplitInfoTable(n int) splitInfoTable {
	t := make(splitInfoTable, n+1)
	// lg (2k−3)!! = Σ_{j=2..k} lg(2j−3); (2·0−3)!! and (2·1−3)!! are 1.
	acc := 0.0
	for k := 2; k <= n; k++ {
		acc += math.Log2(float64(2*k - 3))
		t[k] = acc
	}
	return t
}

// info returns h for a split with one side of size a out of n taxa.
// The total number of unrooted binary n-trees is (2n−5)!! = table[n−1].
func (t splitInfoTable) info(n, a int) float64 {
	if a < 2 || n-a < 2 {
		return 0 // trivial splits carry no information
	}
	return t[n-1] - t[a] - t[n-a]
}

// infoState lazily caches the per-hash information table and total mass.
// The mass is accumulated per split size — integer frequency counts first,
// then one product per size in ascending order — so it is the same
// float64 on every backend, whatever order the table ranges in.
func (h *FreqHash) infoState() (splitInfoTable, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.icTable == nil {
		n := h.taxa.Len()
		h.icTable = newSplitInfoTable(n)
		freqBySize := make([]uint64, n+1)
		h.tbl.Range(func(_ []uint64, e entry) bool {
			if int(e.Size) <= n {
				freqBySize[e.Size] += uint64(e.Freq)
			}
			return true
		})
		sum := 0.0
		for a, f := range freqBySize {
			if f > 0 {
				sum += float64(f) * h.icTable.info(n, a)
			}
		}
		h.icSum = sum
	}
	return h.icTable, h.icSum
}

// SplitInformation returns the information content in bits of a split with
// one side of size a over n taxa. Exposed for tests and analyses.
func SplitInformation(n, a int) float64 {
	return newSplitInfoTable(n).info(n, a)
}
