// Command rfdist computes pairwise Robinson-Foulds distances: either the
// exact RF between two trees (Day's algorithm) or the all-versus-all RF
// matrix of a collection (the HashRF-style computation), with optional
// averaging and a majority-rule consensus mode built directly from the
// bipartition frequency hash.
//
// Usage:
//
//	rfdist -a tree1.nwk -b tree2.nwk        # one pairwise distance
//	rfdist -matrix trees.nwk                # all-vs-all matrix to stdout
//	rfdist -matrix trees.nwk -avg           # per-tree row averages only
//	rfdist -matrix trees.nwk -cluster 3     # flat clustering over the matrix
//	rfdist -matrix trees.nwk -phylip        # PHYLIP square format (ape, PHYLIP)
//	rfdist -consensus trees.nwk -t 0.5      # threshold consensus tree
//	rfdist -consensus trees.nwk -greedy     # greedy (extended majority) consensus
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cluster"
	"repro/internal/collection"
	"repro/internal/day"
	"repro/internal/draw"
	"repro/internal/hashrf"
	"repro/internal/newick"
	"repro/internal/obs"
)

func main() {
	var (
		aPath     = flag.String("a", "", "first tree file (pairwise mode)")
		bPath     = flag.String("b", "", "second tree file (pairwise mode)")
		matrix    = flag.String("matrix", "", "collection file for the all-vs-all RF matrix")
		avg       = flag.Bool("avg", false, "with -matrix: print per-tree averages instead of the matrix")
		clusterK  = flag.Int("cluster", 0, "with -matrix: print a k-cluster assignment (average linkage) instead of the matrix")
		linkage   = flag.String("linkage", "average", "with -cluster: single | complete | average")
		phylip    = flag.Bool("phylip", false, "with -matrix: emit the PHYLIP square distance format")
		consensus = flag.String("consensus", "", "collection file for a threshold consensus tree")
		threshold = flag.Float64("t", 0.5, "consensus support threshold in [0.5, 1] (or min support with -greedy)")
		greedy    = flag.Bool("greedy", false, "greedy extended-majority consensus instead of strict threshold")
		drawTree  = flag.Bool("draw", false, "with -consensus: render the tree as ASCII art instead of Newick")
		version   = flag.Bool("version", false, "print version and VCS revision, then exit")
	)
	logc := obs.RegisterLogFlags(nil)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("rfdist"))
		return
	}
	if _, err := logc.Setup(nil); err != nil {
		fmt.Fprintf(os.Stderr, "rfdist: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *aPath != "" && *bPath != "":
		pairwise(*aPath, *bPath)
	case *matrix != "":
		matrixMode(*matrix, *avg, *clusterK, *linkage, *phylip)
	case *consensus != "":
		consensusMode(*consensus, *threshold, *greedy, *drawTree)
	default:
		fmt.Fprintln(os.Stderr, "rfdist: need -a/-b, -matrix, or -consensus")
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rfdist: %v\n", err)
	os.Exit(1)
}

func pairwise(aPath, bPath string) {
	a, err := collection.OpenFile(aPath)
	if err != nil {
		fatal(err)
	}
	defer a.Close()
	b, err := collection.OpenFile(bPath)
	if err != nil {
		fatal(err)
	}
	defer b.Close()
	ta, err := a.Next()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", aPath, err))
	}
	tb, err := b.Next()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", bPath, err))
	}
	d, err := day.RF(ta, tb)
	if err != nil {
		fatal(err)
	}
	fmt.Println(d)
}

func matrixMode(path string, avgOnly bool, clusterK int, linkage string, phylip bool) {
	src, err := collection.OpenFile(path)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	ts, err := collection.ScanTaxa(src)
	if err != nil {
		fatal(err)
	}
	m, err := hashrf.AllVsAll(src, hashrf.Options{Taxa: ts, AcceptUnweighted: true})
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if phylip {
		if err := m.WritePhylip(w, nil); err != nil {
			fatal(err)
		}
		return
	}
	if clusterK > 0 {
		lk, err := parseLinkage(linkage)
		if err != nil {
			fatal(err)
		}
		dd, err := cluster.Build(m, m.R, lk)
		if err != nil {
			fatal(err)
		}
		labels, err := dd.Cut(clusterK)
		if err != nil {
			fatal(err)
		}
		for i, l := range labels {
			fmt.Fprintf(w, "%d\t%d\n", i, l)
		}
		fmt.Fprintf(os.Stderr, "rfdist: silhouette = %.3f\n", cluster.Silhouette(m, labels))
		return
	}
	if avgOnly {
		for i, a := range m.RowAverages() {
			fmt.Fprintf(w, "%d\t%g\n", i, a)
		}
		return
	}
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.R; j++ {
			if j > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, m.At(i, j))
		}
		fmt.Fprintln(w)
	}
}

func parseLinkage(s string) (cluster.Linkage, error) {
	switch s {
	case "single":
		return cluster.Single, nil
	case "complete":
		return cluster.Complete, nil
	case "average", "":
		return cluster.Average, nil
	default:
		return 0, fmt.Errorf("unknown linkage %q (want single|complete|average)", s)
	}
}

func consensusMode(path string, threshold float64, greedy, drawTree bool) {
	var out string
	var err error
	if greedy {
		min := threshold
		if min >= 0.5 {
			min = 0.05 // with -greedy, default -t is too strict to be useful
		}
		out, err = repro.GreedyConsensusFile(path, min, repro.Config{})
	} else {
		out, err = repro.ConsensusFile(path, threshold, repro.Config{})
	}
	if err != nil {
		fatal(err)
	}
	if drawTree {
		t, err := newick.Parse(out)
		if err != nil {
			fatal(err)
		}
		if err := draw.Write(os.Stdout, t, draw.Options{}); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(out)
}
