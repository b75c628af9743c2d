package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/tree"
)

// writeCollection materializes trees to a Newick file and opens it.
func writeCollection(t *testing.T, trees []*tree.Tree) *collection.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trees.nwk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if err := newick.Write(f, tr, newick.DefaultWriteOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestRawPathMatchesParsedPath: building/querying from a file (raw
// parallel-parse path) must equal the in-memory (pre-parsed) path exactly.
func TestRawPathMatchesParsedPath(t *testing.T) {
	trees, ts := randomCollection(303, 15, 80)
	fileSrc := writeCollection(t, trees)
	memSrc := collection.FromTrees(trees)

	hFile, err := Build(fileSrc, ts, BuildOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hMem, err := Build(memSrc, ts, BuildOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hFile.NumTrees() != hMem.NumTrees() {
		t.Fatalf("r: %d vs %d", hFile.NumTrees(), hMem.NumTrees())
	}
	if hFile.UniqueBipartitions() != hMem.UniqueBipartitions() {
		t.Fatalf("unique: %d vs %d", hFile.UniqueBipartitions(), hMem.UniqueBipartitions())
	}
	if hFile.TotalBipartitions() != hMem.TotalBipartitions() {
		t.Fatalf("sum: %d vs %d", hFile.TotalBipartitions(), hMem.TotalBipartitions())
	}

	resFile, err := hFile.AverageRF(fileSrc, QueryOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resMem, err := hMem.AverageRF(memSrc, QueryOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resFile) != len(resMem) {
		t.Fatalf("results: %d vs %d", len(resFile), len(resMem))
	}
	for i := range resFile {
		if resFile[i].AvgRF != resMem[i].AvgRF {
			t.Errorf("query %d: raw %v vs parsed %v", i, resFile[i].AvgRF, resMem[i].AvgRF)
		}
	}
}

func TestRawPathErrorsPropagate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.nwk")
	if err := os.WriteFile(path, []byte("((A,B),(C,D));\n(A,;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := BuildDefault(src, abcd); err == nil {
		t.Error("malformed tree in the raw path should fail the build")
	}
}

func TestRawPathQueryErrorsPropagate(t *testing.T) {
	trees, ts := randomCollection(5, 8, 6)
	h := buildHash(t, trees, ts)
	path := filepath.Join(t.TempDir(), "q.nwk")
	if err := os.WriteFile(path, []byte("((A,B),(C,D));\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := h.AverageRF(src, QueryOptions{RequireComplete: true}); err == nil {
		t.Error("wrong-taxa query in the raw path should fail")
	}
}

// TestFusedPathEquivalenceWall: a hash built and queried from a file —
// statements go straight to splits through bipart.Extractor.ExtractNewick —
// answers bit for bit like one built and queried from the same trees
// parsed into memory, for every variant, on both backends, with the query
// cache on and off, with and without a size filter, and on catalogues of
// one, two and three mask words. Builds use one worker so that the
// weighted length sums accumulate in the same order on both paths.
func TestFusedPathEquivalenceWall(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{12, 100, 130} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			trees, ts := randomCollection(int64(n)+5, n, 40)
			for _, tr := range trees {
				tr.Postorder(func(nd *tree.Node) {
					if nd.Parent != nil {
						nd.Length = rng.Float64()*2 + 0.01
					}
				})
			}
			refFile := writeCollection(t, trees)
			qFile := writeCollection(t, equivQueries(trees, ts, rng))
			// The in-memory side reads the very same text through the
			// tree parser, so both sides see identical lengths.
			refTrees, err := collection.ReadAll(refFile)
			if err != nil {
				t.Fatal(err)
			}
			qTrees, err := collection.ReadAll(qFile)
			if err != nil {
				t.Fatal(err)
			}
			for _, backend := range []Backend{BackendOpenAddressing, BackendSuccinct} {
				for _, filter := range []bipart.Filter{nil, bipart.SizeFilter(3, n/3, n)} {
					bo := BuildOptions{RequireComplete: true, Backend: backend, Filter: filter, Workers: 1}
					hFile, err := Build(refFile, ts, bo)
					if err != nil {
						t.Fatal(err)
					}
					hMem, err := Build(collection.FromTrees(refTrees), ts, bo)
					if err != nil {
						t.Fatal(err)
					}
					if hFile.Fingerprint() != hMem.Fingerprint() || hFile.TotalBipartitions() != hMem.TotalBipartitions() {
						t.Fatalf("backend %v filter %v: file and memory builds differ", backend, filter != nil)
					}
					for _, v := range []Variant{Plain, Normalized, Weighted, Info} {
						for _, cached := range []bool{false, true} {
							opts := QueryOptions{RequireComplete: true, Variant: v, Filter: filter, Workers: 2}
							if cached {
								opts.Cache = NewQueryCache(0, 0)
							}
							got, err := hFile.AverageRF(qFile, opts)
							if err != nil {
								t.Fatal(err)
							}
							if cached {
								opts.Cache = NewQueryCache(0, 0)
							}
							want, err := hMem.AverageRF(collection.FromTrees(qTrees), opts)
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != len(want) {
								t.Fatalf("%d results, want %d", len(got), len(want))
							}
							for i := range want {
								if math.Float64bits(got[i].AvgRF) != math.Float64bits(want[i].AvgRF) {
									t.Fatalf("backend %v filter %v %v cached=%v query %d: file %v, memory %v",
										backend, filter != nil, v, cached, i, got[i].AvgRF, want[i].AvgRF)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestRawBuildParseFault: a parse fault injected on the second statement
// of a file-backed build reaches the caller as a *newick.ParseError — the
// fused path fires the parse-tree point once per statement, as the tree
// parser does, so chaos schedules keep reaching it.
func TestRawBuildParseFault(t *testing.T) {
	trees, ts := randomCollection(31, 10, 5)
	src := writeCollection(t, trees)
	faultinject.Arm(faultinject.Plan{Point: faultinject.PointParseTree, Kind: faultinject.KindError, Hit: 2})
	defer faultinject.Disarm()
	_, err := Build(src, ts, BuildOptions{RequireComplete: true, Workers: 1})
	var pe *newick.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("Build with an injected parse fault: err = %v, want a *newick.ParseError", err)
	}
}
