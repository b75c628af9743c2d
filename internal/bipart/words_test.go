package bipart

import (
	"math/rand"
	"testing"

	"repro/internal/simphy"
	"repro/internal/taxa"
)

// TestWordsViewRoundTrip: viewing the words AppendWords wrote gives back
// the extracted splits — same masks, same hashes, same order — for one-,
// two- and three-word masks, and a warm view allocates nothing.
func TestWordsViewRoundTrip(t *testing.T) {
	for _, n := range []int{4, 12, 64, 100, 130} {
		ts := taxa.Generate(n)
		rng := rand.New(rand.NewSource(int64(n)))
		ex := NewExtractor(ts)
		var v WordsView
		for i := 0; i < 5; i++ {
			bs := ex.MustExtract(simphy.RandomBinary(ts, rng))
			words := AppendWords(nil, bs)
			got, err := v.View(words, n)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if len(got) != len(bs) {
				t.Fatalf("n=%d: %d splits, want %d", n, len(got), len(bs))
			}
			for j := range bs {
				if !got[j].Equal(bs[j]) || got[j].Hash() != bs[j].Hash() {
					t.Errorf("n=%d split %d: view %s/%x, extracted %s/%x",
						n, j, got[j], got[j].Hash(), bs[j], bs[j].Hash())
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { v.View(words, n) }); allocs != 0 {
				t.Errorf("n=%d: warm View allocates %v times", n, allocs)
			}
		}
	}
}

// TestWordsViewRejects: every split that is not what extraction emits for
// a complete tree is refused.
func TestWordsViewRejects(t *testing.T) {
	var v WordsView
	cases := []struct {
		name  string
		words []uint64
		n     int
	}{
		{"anchor on the 1 side", []uint64{0b0011}, 4},
		{"bit beyond the catalogue", []uint64{0b1_0000_0110}, 8},
		{"empty split", []uint64{0}, 8},
		{"pendant split", []uint64{0b100}, 8},
		{"complement of a pendant split", []uint64{0b1111_1110}, 8},
		{"partial multi-word split", []uint64{6, 0}, 130},
		{"tail bit of the last word", []uint64{6, 0, 1 << 2}, 130},
		{"words over an empty catalogue", []uint64{6}, 0},
	}
	for _, c := range cases {
		if _, err := v.View(c.words, c.n); err == nil {
			t.Errorf("%s: accepted %x over %d taxa", c.name, c.words, c.n)
		}
	}
	if bs, err := v.View(nil, 8); err != nil || len(bs) != 0 {
		t.Errorf("no words: %v, %v; want no splits", bs, err)
	}
}
