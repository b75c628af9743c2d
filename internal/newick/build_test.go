package newick

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/simphy"
	"repro/internal/tree"
)

// lengthTree writes a balanced n-leaf tree with branch lengths at
// precision 6, the shape and format of the benchmark's query trees.
func lengthTree(n int) string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("taxon_%03d", i)
	}
	tr := tree.Balanced(names)
	rng := rand.New(rand.NewSource(int64(n)))
	tr.Preorder(func(nd *tree.Node) {
		if nd.Parent != nil {
			nd.Length, nd.HasLength = rng.ExpFloat64()/10, true
		}
	})
	return String(tr, WriteOptions{BranchLengths: true, Precision: 6})
}

// TestParseSteadyStateAllocs pins the slab layout: a parsed tree costs
// its node slab, children slab, label string and Tree, whatever its size.
func TestParseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	var counts []float64
	for _, n := range []int{100, 1000} {
		s := lengthTree(n)
		counts = append(counts, testing.AllocsPerRun(50, func() {
			if _, err := Parse(s); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] > 8 || counts[1] != counts[0] {
		t.Fatalf("Parse allocations at n=100, 1000: %v; want ≤ 8 and independent of n", counts)
	}
}

// nodeState is what a node looked like before a mutation.
type nodeState struct {
	name     string
	parent   *tree.Node
	children []*tree.Node
}

func snapshot(tr *tree.Tree) map[*tree.Node]nodeState {
	out := map[*tree.Node]nodeState{}
	tr.Preorder(func(n *tree.Node) {
		out[n] = nodeState{n.Name, n.Parent, append([]*tree.Node(nil), n.Children...)}
	})
	return out
}

// TestSlabTreeSurvivesMutation: nodes share one slab and their children
// windows share another, yet mutating a parsed tree through the tree
// package's own operations must never reach a node it did not touch.
// Children windows handed out with spare capacity would let AddChild
// overwrite the next node's first child.
func TestSlabTreeSurvivesMutation(t *testing.T) {
	s := lengthTree(24)
	tr := MustParse(s)
	before := snapshot(tr)

	// Copying operations leave the parsed tree as it was.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		for _, moved := range []*tree.Tree{simphy.NNI(tr, rng), simphy.SPR(tr, rng)} {
			if err := moved.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept, err := tree.Restrict(tr, func(name string) bool { return name[len(name)-1] != '3' })
	if err != nil {
		t.Fatal(err)
	}
	if err := kept.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := String(tr, WriteOptions{BranchLengths: true, Precision: 6}); got != s {
		t.Fatalf("copying operations changed the parsed tree:\n%s\nwas\n%s", got, s)
	}

	// Growing every node in turn changes only that node.
	var grown []*tree.Node
	tr.Preorder(func(n *tree.Node) { grown = append(grown, n) })
	added := map[*tree.Node]*tree.Node{}
	for i, n := range grown {
		extra := &tree.Node{Name: fmt.Sprintf("extra %d", i)}
		n.AddChild(extra)
		added[n] = extra
	}
	for n, was := range before {
		want := append(was.children, added[n])
		if n.Name != was.name || n.Parent != was.parent || len(n.Children) != len(want) {
			t.Fatalf("node %q changed: name %q, %d children (want %d)", was.name, n.Name, len(n.Children), len(want))
		}
		for i, c := range n.Children {
			if c != want[i] || c.Parent != n {
				t.Fatalf("node %q: child %d overwritten by %q", was.name, i, c.Name)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParseConcurrent: goroutines parsing at once share the builder pool
// but never a builder.
func TestParseConcurrent(t *testing.T) {
	opts := WriteOptions{BranchLengths: true, Precision: 6}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := lengthTree(10 + g*7 + i%5)
				tr, err := Parse(s)
				if err != nil {
					t.Error(err)
					return
				}
				if got := String(tr, opts); got != s {
					t.Errorf("goroutine %d: parsed %q back as %q", g, s, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
