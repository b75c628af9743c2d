package newick_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/bipart"
	"repro/internal/newick"
	"repro/internal/taxa"
)

// scannerEdges sit on each edge of the Scanner's common-case step: the
// plain-decimal length rule (15 and 16 digits, a bare '.', signs, a
// second '.', an exponent, an underscore), what may follow a length,
// underscores in leaf and internal labels, and labels and lengths long
// enough for a byte window to end inside them.
var scannerEdges = []string{
	"((A:123456789012345,B:0.12345678901234),(C,D));",
	"((A:1234567890123456,B:0.123456789012345),(C,D:9.999999999999999));",
	"((A,B):999999999999999,(C,D):9999999999999999);",
	"((A:1.,B:.5),(C:-0,D:+1));",
	"((A:1.2.3,B),(C,D));",
	"((A:1e-3,B:2E5),(C,D));",
	"((A:1_0,B),(C,D));",
	"((A:-,B),(C:+.,D:.));",
	"((A:1.5 ,B),(C,D));",
	"((A:1.5\n,B),(C,D));",
	"((A:1.5[c],B),(C,D));",
	"((A:1.5'q',B),(C,D));",
	"((A,B):2 ,(C,D)x:3[c]);",
	"((A_1,B),(C,D_2));",
	"((A,B)int_l:0.5,(C,D)z)root;",
	"((A,B)x,(C,D)y:1)r:2;",
	"((A,B)'q':1,(C,D)x y);",
	"((Alpha_long:1.25,B),(C,D:0.0320576));",
	"((A,B),(C,D)):1.5;",
	"(A,B,C,D);",
	"((A,B),(C,D),(E,F));",
	"((A,B),(C,D)",
	"((A,B),(C:1.5",
	"((A,B),(C,Dlabel",
	"((A,B)x",
}

// TestScannerEdgesMatchReference holds ParseLimits to the reference
// parser on every edge case above, with no limits and under every byte
// window and taxon cap that ends on or around them (windows cut inside
// labels and lengths, and the MaxTaxa-th and (MaxTaxa+1)-th leaf), and
// holds bipart.ExtractNewick to Extract over the reference's tree.
func TestScannerEdgesMatchReference(t *testing.T) {
	ts := taxa.MustNewSet([]string{"A", "B", "C", "D", "E", "F", "A 1", "D 2", "Alpha long"})
	for _, in := range scannerEdges {
		for budget := 0; budget <= len(in)+1; budget++ {
			for maxTaxa := 0; maxTaxa <= 7; maxTaxa++ {
				lim := newick.Limits{MaxTreeBytes: budget, MaxTaxa: maxTaxa}
				got, gotErr := newick.ParseLimits(in, lim)
				want, wantErr := newick.RefParse(in, lim)
				if msg := newick.SameOutcome(got, gotErr, want, wantErr); msg != "" {
					t.Fatalf("ParseLimits(%q, %+v): %s", in, lim, msg)
				}
			}
		}
		for _, ex := range []bipart.Extractor{{Taxa: ts}, {Taxa: ts, IncludeTrivial: true}} {
			if msg := sameExtract(ex, in); msg != "" {
				t.Fatalf("ExtractNewick(%q), IncludeTrivial %v: %s", in, ex.IncludeTrivial, msg)
			}
		}
	}
}

// sameExtract compares ex.ExtractNewick(in) with ex.Extract over the
// reference parser's tree: the same ParseError, or the same extraction
// error, or the same splits (words, hash, length bits, order).
func sameExtract(ex bipart.Extractor, in string) string {
	got, gotErr := ex.ExtractNewick(in)
	tr, refErr := newick.RefParse(in, newick.Limits{})
	if refErr != nil {
		var g, w *newick.ParseError
		switch {
		case errors.Is(refErr, io.EOF) && errors.As(gotErr, &g):
		case errors.As(refErr, &w) && errors.As(gotErr, &g) && *g == *w:
		default:
			return fmt.Sprintf("error %v, reference %v", gotErr, refErr)
		}
		return ""
	}
	want, wantErr := ex.Extract(tr)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d splits, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !slices.Equal(g.Words(), w.Words()) || g.Hash() != w.Hash() || g.HasLength != w.HasLength ||
			math.Float64bits(g.Length) != math.Float64bits(w.Length) {
			return fmt.Sprintf("split %d = %v (len %v %v), reference %v (len %v %v)",
				i, g, g.Length, g.HasLength, w, w.Length, w.HasLength)
		}
	}
	return ""
}
