package bipart

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
)

// smallTaxa admits complete trees on short labels, including the
// decoded forms of a quoted escape and an underscore.
var smallTaxa = taxa.MustNewSet([]string{"A", "B", "C", "D", "E", "F", "a b", "it's"})

// wideTaxa is a superset of smallTaxa past 64 names, so masks span two
// words and small trees leave most taxa absent (anchor ≠ 0 is common).
var wideTaxa = func() *taxa.Set {
	names := smallTaxa.Names()
	for i := 0; i < 60; i++ {
		names = append(names, fmt.Sprintf("t%02d", i))
	}
	return taxa.MustNewSet(names)
}()

// extractModes are the Extractor settings the differential checks cover.
func extractModes() []struct {
	name string
	ex   Extractor
} {
	return []struct {
		name string
		ex   Extractor
	}{
		{"complete", Extractor{Taxa: smallTaxa, RequireComplete: true}},
		{"partial", Extractor{Taxa: wideTaxa}},
		{"trivial", Extractor{Taxa: wideTaxa, IncludeTrivial: true}},
		{"filter", Extractor{Taxa: wideTaxa, Filter: SizeFilter(2, 3, wideTaxa.Len())}},
		{"complete-trivial-filter", Extractor{Taxa: smallTaxa, RequireComplete: true, IncludeTrivial: true,
			Filter: SizeFilter(1, 2, smallTaxa.Len())}},
	}
}

// checkExtractNewick compares ExtractNewick with newick.Parse → Extract on
// one input under one Extractor setting: acceptance, error kind (and a
// ParseError's position and message, or an extraction error's text), and
// on success every split's words, hash, length bits and order. The fused
// extractor runs twice to exercise its recycled scratch.
func checkExtractNewick(t *testing.T, mode string, cfg Extractor, input string) {
	t.Helper()
	tree := cfg
	want, wantErr := func() ([]Bipartition, error) {
		tr, err := newick.Parse(input)
		if err != nil {
			return nil, err
		}
		return tree.Extract(tr)
	}()
	for _, reuse := range []bool{false, true} {
		fused := cfg
		fused.ReuseMasks = reuse
		for pass := 0; pass < 2; pass++ {
			got, err := fused.ExtractNewick(input)
			where := fmt.Sprintf("%s reuse=%v pass %d: %q", mode, reuse, pass, input)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: fused err %v, tree path err %v", where, err, wantErr)
			}
			if wantErr != nil {
				var wantPE, gotPE *newick.ParseError
				switch {
				case errors.As(wantErr, &wantPE):
					if !errors.As(err, &gotPE) || *gotPE != *wantPE {
						t.Fatalf("%s: fused err %#v, tree path ParseError %#v", where, err, wantPE)
					}
				case errors.Is(wantErr, io.EOF):
					// Parse reports a blank statement as io.EOF; the
					// scanner reports a ParseError. Both reject.
				default:
					if err.Error() != wantErr.Error() {
						t.Fatalf("%s: fused err %q, tree path err %q", where, err, wantErr)
					}
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d splits, tree path %d", where, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if !slices.Equal(g.Words(), w.Words()) || g.Hash() != w.Hash() ||
					math.Float64bits(g.Length) != math.Float64bits(w.Length) || g.HasLength != w.HasLength {
					t.Fatalf("%s: split %d = %v (len %v %v), tree path %v (len %v %v)",
						where, i, g, g.Length, g.HasLength, w, w.Length, w.HasLength)
				}
			}
		}
	}
}

// checkLeafNames asserts that, on input Parse accepts, the scanner's Leaf
// events name the same leaves in the same order as tree.LeafNames.
func checkLeafNames(t *testing.T, input string) {
	t.Helper()
	tr, err := newick.Parse(input)
	if err != nil {
		return
	}
	var sc newick.Scanner
	sc.Reset(input)
	var names []string
	for {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("scanner rejects %q, which Parse accepts: %v", input, err)
		}
		if ev == newick.End {
			break
		}
		if ev == newick.Leaf {
			names = append(names, string(sc.Label()))
		}
	}
	if want := tr.LeafNames(); !slices.Equal(names, want) {
		t.Fatalf("%q: scanner leaves %q, tree leaves %q", input, names, want)
	}
}

// extractNewickSeeds cover the grammar's corners and every extraction
// rule the fused path re-implements.
var extractNewickSeeds = []string{
	// Shapes: complete unrooted, rooted-binary root, trifurcating root,
	// multifurcation, single-child root, caterpillar.
	"((A,B),(C,D),((E,F),('a b','it''s')));",
	"(((A,B),C),((D,E),(F,('a b','it''s'))));",
	"(A,B,(C,D,E,F,'a b','it''s'));",
	"((A,B,C),(D,E,F,'a b','it''s'));",
	"(((A,B),(C,D),(E,F,'a b','it''s')));",
	"(A,(B,(C,(D,(E,(F,('a b','it''s')))))));",
	"((A,B),(C,D));",
	"(A,(B,C));",
	// Labels: quoted, escapes, underscores, internal labels.
	"((A,B)ab,(C,'D'):1.5,(E,F)'int''l':2,(a_b,'it''s')99);",
	"(('A',B_)x_y,(C,'a_b'));",
	"((A:1,B:2)0.9:0.5,(C:3,D:4)0.8:0.25);",
	// Lengths: underscores, quoted, NaN, Inf, hex floats, signs, bad.
	"((A:_1.5_,B:'2.5'),(C:NaN,D:-Inf),(E:0x1p-2,F:+Inf),('a b':1e-300,'it''s':1E5));",
	"((A:nan,B:inf),(C:0x1.8p1,D:-0));",
	"((A:1_0,B),(C,D));",
	"((A:,B),(C,D));",
	"((A:x,B),(C,D));",
	"((A:'',B),(C,D));",
	"((A::1,B),(C,D));",
	// Comments: nested, and between every token pair.
	"[lead]([a]([b]A[c]:[d]1[e],[f]B[g])[h]x[i]:[j]2[k],[l](C,D)[m[n]o])[p];[q]",
	"((A[x[y[z]]],B),(C,D)[&&NHX:S=1]);",
	"((A,B),(C,D));[unterminated",
	"((A,B)[;],(C,'D;'));",
	// Whitespace between every token.
	" ( ( A , B ) \n ( C , D ) ) \r\n ; \t",
	"(\n(A,B),\n(C,D)\n)\n;\n",
	// Malformed statements.
	"()",
	"();",
	"(,);",
	"(A,);",
	"('',B);",
	"((A,B),(C,D))",
	"((A,B),(C,D)",
	"((A,B),(C,D)));",
	"((A,B) (C,D));",
	"((A,B)x y,(C,D));",
	"(A B,C);",
	"((A,B),(C,D));((A,C),(B,D));",
	"((A,B),(C,D));((A,C);",
	"((A,B),(C,D));;",
	"((A,B),(C,D));x",
	"'unterminated",
	"((A,B),(C,D]);",
	"((A,B),(C,D));]",
	";",
	"",
	"   ",
	"[only a comment]",
	// Extraction failures: duplicate, unknown and too few leaves.
	"((A,A),(C,D));",
	"((A,B),(C,Z));",
	"((Z,B),(C,A),(A,D));",
	"A;",
	"(A);",
	"((A));",
	"(A,B);",
}

func TestExtractNewickMatchesParseExtract(t *testing.T) {
	for _, input := range extractNewickSeeds {
		for _, m := range extractModes() {
			checkExtractNewick(t, m.name, m.ex, input)
		}
		checkLeafNames(t, input)
	}
}

// TestExtractNewickSimulatedTrees runs the differential check over
// simulated trees with branch lengths, on catalogues of one and several
// mask words.
func TestExtractNewickSimulatedTrees(t *testing.T) {
	for _, n := range []int{5, 64, 65, 130} {
		ts := taxa.Generate(n)
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			unrooted := newick.String(simphy.RandomBinary(ts, rng), newick.WriteOptions{BranchLengths: true})
			rooted := newick.String(simphy.Yule(ts, rng, simphy.YuleOptions{}), newick.WriteOptions{BranchLengths: true})
			single := "(" + strings.TrimSuffix(unrooted, ";") + ");"
			for _, input := range []string{unrooted, rooted, single} {
				checkExtractNewick(t, fmt.Sprintf("n=%d", n), Extractor{Taxa: ts, RequireComplete: true}, input)
				checkExtractNewick(t, fmt.Sprintf("n=%d filter", n), Extractor{Taxa: ts, RequireComplete: true,
					Filter: SizeFilter(3, n/2, n)}, input)
			}
		}
	}
}

// FuzzExtractNewick is the differential fuzz target of the fused path:
// on any input, ExtractNewick must agree with newick.Parse → Extract in
// every Extractor mode (see checkExtractNewick), and the scanner's leaf
// names must equal tree.LeafNames on accepted input. ci.sh runs a
// 10-second smoke; explore with
// `go test -fuzz=FuzzExtractNewick ./internal/bipart`.
func FuzzExtractNewick(f *testing.F) {
	for _, s := range extractNewickSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return // bound the cost per input, not robustness
		}
		for _, m := range extractModes() {
			checkExtractNewick(t, m.name, m.ex, input)
		}
		checkLeafNames(t, input)
	})
}

// TestExtractNewickSteadyStateAllocs: with ReuseMasks, extracting tree
// after tree allocates nothing once the scratch has grown.
func TestExtractNewickSteadyStateAllocs(t *testing.T) {
	ts := taxa.Generate(100)
	var stmts []string
	for seed := int64(0); seed < 8; seed++ {
		tr := simphy.RandomBinary(ts, rand.New(rand.NewSource(seed)))
		stmts = append(stmts, newick.String(tr, newick.WriteOptions{BranchLengths: true}))
	}
	ex := &Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	for _, s := range stmts {
		if _, err := ex.ExtractNewick(s); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ex.ExtractNewick(stmts[i%len(stmts)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("ExtractNewick allocates %v times per tree in steady state, want 0", allocs)
	}
}

// BenchmarkExtractNewick extracts an n=100 tree with branch lengths,
// written the way generated collection files are; in steady state it
// allocates nothing, and the benchmark fails if it does.
func BenchmarkExtractNewick(b *testing.B) {
	ts := taxa.Generate(100)
	tr := simphy.RandomBinary(ts, rand.New(rand.NewSource(1)))
	stmt := newick.String(tr, newick.WriteOptions{BranchLengths: true, Precision: 6})
	ex := &Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	if _, err := ex.ExtractNewick(stmt); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = ex.ExtractNewick(stmt) }); allocs != 0 {
		b.Fatalf("ExtractNewick allocates %v times per tree in steady state, want 0", allocs)
	}
	b.SetBytes(int64(len(stmt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExtractNewick(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExtractNewickFiresParseFault: the fused path fires the parse-tree
// fault point once per statement, so injected parse faults reach it as
// *newick.ParseError just as they reach the tree parser.
func TestExtractNewickFiresParseFault(t *testing.T) {
	faultinject.Arm(faultinject.Plan{Point: faultinject.PointParseTree, Kind: faultinject.KindError, Hit: 2})
	defer faultinject.Disarm()
	ex := NewExtractor(abcd)
	for i := 1; i <= 3; i++ {
		_, err := ex.ExtractNewick("((A,B),(C,D));")
		var pe *newick.ParseError
		if got := errors.As(err, &pe); got != (i == 2) {
			t.Fatalf("statement %d: err = %v; want a ParseError only on the 2nd", i, err)
		}
	}
}
