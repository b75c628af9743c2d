package bipart

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// referenceExtract is the two-pass tree extractor Extract replaced, kept
// verbatim as an independent oracle: a Postorder pass maps leaves to
// catalogue indices and finds the anchor, then an iterative postorder
// with one pooled mask per frame copies, canonicalizes and hashes every
// edge's mask. Extract must equal it bit for bit, errors included, on
// every tree whose root has no parent.
func (e *Extractor) referenceExtract(t *tree.Tree) ([]Bipartition, error) {
	n := e.Taxa.Len()
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("bipart: nil tree")
	}
	if e.ReuseMasks {
		// The previous call's emitted masks are dead now; recycle them.
		e.pool = append(e.pool, e.emitted...)
		e.emitted = e.emitted[:0]
	}

	// First pass: map leaves to catalogue indices and find the anchor
	// (lowest-indexed taxon present).
	present := 0
	anchor := -1
	var leafErr error
	seen := e.resetSeen(n)
	t.Postorder(func(nd *tree.Node) {
		if leafErr != nil || !nd.IsLeaf() {
			return
		}
		idx, ok := e.Taxa.Index(nd.Name)
		if !ok {
			leafErr = fmt.Errorf("bipart: leaf %q not in taxon catalogue", nd.Name)
			return
		}
		if seen[idx] {
			leafErr = fmt.Errorf("bipart: duplicate leaf %q", nd.Name)
			return
		}
		seen[idx] = true
		present++
		if anchor == -1 || idx < anchor {
			anchor = idx
		}
	})
	if leafErr != nil {
		return nil, leafErr
	}
	if present < 2 {
		return nil, fmt.Errorf("bipart: tree has %d taxa; need at least 2", present)
	}
	if e.RequireComplete && present != n {
		missing := 0
		for seen[missing] {
			missing++
		}
		return nil, fmt.Errorf("bipart: tree covers %d of %d catalogue taxa; complete coverage required (missing %q)",
			present, n, e.Taxa.Name(missing))
	}

	// Second pass: iterative postorder with pooled masks. Each stack frame
	// owns one mask; a completed child ORs its mask into its parent's and
	// returns the buffer to the pool, so extraction allocates only the
	// emitted canonical masks (and not even those under ReuseMasks).
	var out []Bipartition
	if e.ReuseMasks {
		out = e.outBuf[:0]
	}
	// In the rooted-binary serialization (root with 2 children) the two root
	// edges are the same unrooted edge; emit only the first.
	var skipChild *tree.Node
	if len(t.Root.Children) == 2 {
		skipChild = t.Root.Children[1]
	}
	type frame struct {
		nd    *tree.Node
		child int
		mask  *bitset.Bits
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{nd: t.Root, mask: e.getMask(n)}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.nd.Children) {
			c := f.nd.Children[f.child]
			f.child++
			stack = append(stack, frame{nd: c, mask: e.getMask(n)})
			continue
		}
		nd, m := f.nd, f.mask
		if nd.IsLeaf() {
			idx, _ := e.Taxa.Index(nd.Name)
			m.Set(idx)
		}
		if nd.Parent != nil && nd != skipChild {
			var c *bitset.Bits
			if e.ReuseMasks {
				c = e.getMask(n)
				c.CopyFrom(m)
			} else {
				c = m.Clone()
			}
			if c.Test(anchor) {
				c.ComplementInPlace()
			}
			b := Bipartition{mask: c, hash: maskHash(c.Words())}
			b.Length, b.HasLength = nd.Length, nd.HasLength
			if (e.IncludeTrivial || !b.IsTrivial(present)) &&
				(e.Filter == nil || e.Filter(b)) {
				out = append(out, b)
				if e.ReuseMasks {
					e.emitted = append(e.emitted, c)
				}
			} else if e.ReuseMasks {
				e.putMask(c)
			}
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			stack[len(stack)-1].mask.Or(m)
		}
		e.putMask(m)
	}
	if e.ReuseMasks {
		e.outBuf = out
	}
	return out, nil
}

// sameExtraction fails t unless got/gotErr equal the reference's
// want/wantErr: the same error text, or the same splits in the same
// order with equal words, hashes and length bits.
func sameExtraction(t *testing.T, where string, got []Bipartition, gotErr error, want []Bipartition, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: err %v, reference %v", where, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d splits, reference %d", where, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Words(), w.Words()) || g.Hash() != w.Hash() ||
			math.Float64bits(g.Length) != math.Float64bits(w.Length) || g.HasLength != w.HasLength {
			t.Fatalf("%s: split %d = %v (len %v %v), reference %v (len %v %v)",
				where, i, g, g.Length, g.HasLength, w, w.Length, w.HasLength)
		}
	}
}

// checkExtractMatchesReference runs Extract and referenceExtract over the
// same trees, in order, each on one Extractor of setting cfg kept across
// the calls (so ReuseMasks recycles between them), with ReuseMasks off
// and on, and compares every call.
func checkExtractMatchesReference(t *testing.T, mode string, cfg Extractor, trees ...*tree.Tree) {
	t.Helper()
	for _, reuse := range []bool{false, true} {
		ex, ref := cfg, cfg
		ex.ReuseMasks, ref.ReuseMasks = reuse, reuse
		for pass := 0; pass < 2; pass++ {
			for i, tr := range trees {
				want, wantErr := ref.referenceExtract(tr)
				got, err := ex.Extract(tr)
				sameExtraction(t, fmt.Sprintf("%s reuse=%v pass %d tree %d", mode, reuse, pass, i), got, err, want, wantErr)
			}
		}
	}
}

// leafN and innerN build tree nodes directly, without Newick; a negative
// length means none.
func leafN(name string, length float64) *tree.Node {
	return &tree.Node{Name: name, Length: length, HasLength: length >= 0}
}

func innerN(length float64, kids ...*tree.Node) *tree.Node {
	nd := &tree.Node{Length: length, HasLength: length >= 0}
	for _, k := range kids {
		nd.AddChild(k)
	}
	return nd
}

// TestExtractMatchesReferenceShapes holds Extract to the two-pass
// reference on trees built with tree constructors: every root degree,
// unary nodes, multifurcations, catalogue errors and partial coverage,
// in every Extractor mode.
func TestExtractMatchesReferenceShapes(t *testing.T) {
	l := func(name string) *tree.Node { return leafN(name, float64(len(name))) }
	shapes := []struct {
		name  string
		build func() *tree.Node
	}{
		{"root 1 child", func() *tree.Node {
			return innerN(-1, innerN(0.5, innerN(1, l("A"), l("B")), l("C"), innerN(2, l("D"), l("E"))))
		}},
		{"root 2 children", func() *tree.Node {
			return innerN(-1, innerN(0.5, l("A"), innerN(1, l("B"), l("C"))), innerN(0.25, l("D"), l("E"), l("F")))
		}},
		{"root 2 children, leaf second", func() *tree.Node {
			return innerN(-1, innerN(0.5, innerN(1, l("A"), l("B")), l("C")), l("D"))
		}},
		{"root 3 children", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("B")), innerN(2, l("C"), l("D")), innerN(3, l("E"), l("F")))
		}},
		{"unary internal nodes", func() *tree.Node {
			return innerN(-1, innerN(1, innerN(2, l("A"), l("B"))), innerN(3, innerN(-1, innerN(4, l("C")))), l("D"), l("E"))
		}},
		{"unary root over leaf", func() *tree.Node { return innerN(-1, l("A")) }},
		{"single-leaf root", func() *tree.Node { return l("A") }},
		{"two leaves", func() *tree.Node { return innerN(-1, l("A"), l("B")) }},
		{"multifurcation", func() *tree.Node {
			return innerN(-1, l("A"), innerN(1, l("B"), l("C"), l("D"), l("E")), innerN(-1, l("F"), l("a b"), l("it's")))
		}},
		{"star", func() *tree.Node {
			return innerN(-1, l("A"), l("B"), l("C"), l("D"), l("E"), l("F"), l("a b"), l("it's"))
		}},
		{"unknown leaf", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("Z")), l("C"), innerN(2, l("D"), l("Y")))
		}},
		{"duplicate leaf", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("B")), l("C"), innerN(2, l("B"), l("A")))
		}},
		{"duplicate, then unknown", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("A")), l("Z"), l("C"))
		}},
		{"childless unnamed node", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("B")), innerN(2), l("C"))
		}},
		{"complete 8", func() *tree.Node {
			return innerN(-1, innerN(1, l("A"), l("B")), innerN(2, l("C"), l("D")),
				innerN(3, innerN(4, l("E"), l("F")), innerN(5, l("a b"), l("it's"))))
		}},
		{"partial over wide", func() *tree.Node {
			return innerN(-1, innerN(1, l("t07"), l("t59")), innerN(2, l("t03"), l("C")), innerN(3, l("t40"), l("t41")))
		}},
	}
	for _, sh := range shapes {
		for _, m := range extractModes() {
			checkExtractMatchesReference(t, sh.name+" "+m.name, m.ex, tree.New(sh.build()))
		}
	}
	// One Extractor across every shape in turn: scratch left by a failed
	// or differently sized call must not leak into the next.
	var all []*tree.Tree
	for _, sh := range shapes {
		all = append(all, tree.New(sh.build()))
	}
	for _, m := range extractModes() {
		checkExtractMatchesReference(t, "sequence "+m.name, m.ex, all...)
	}
	checkExtractMatchesReference(t, "nil", Extractor{Taxa: smallTaxa}, &tree.Tree{})
}

// TestExtractMatchesReferenceSimulated covers catalogues of one to 32
// mask words with simulated shapes (random unrooted, Yule-rooted,
// caterpillar, balanced, and a multifurcating contraction), with and
// without branch lengths, and partial trees over a wider catalogue.
func TestExtractMatchesReferenceSimulated(t *testing.T) {
	for _, n := range []int{12, 64, 100, 130, 2048} {
		ts := taxa.Generate(n)
		wide := taxa.Generate(n + 7)
		rng := rand.New(rand.NewSource(int64(n)))
		trees := []*tree.Tree{
			simphy.RandomBinary(ts, rng),
			simphy.Yule(ts, rng, simphy.YuleOptions{}),
			simphy.Caterpillar(ts, rng),
			simphy.BalancedBinary(ts, rng),
			contract(simphy.RandomBinary(ts, rng), rng),
		}
		stripped := simphy.RandomBinary(ts, rng)
		simphy.StripLengths(stripped)
		trees = append(trees, stripped)
		where := fmt.Sprintf("n=%d", n)
		checkExtractMatchesReference(t, where, Extractor{Taxa: ts, RequireComplete: true}, trees...)
		checkExtractMatchesReference(t, where+" trivial filter", Extractor{Taxa: ts, RequireComplete: true,
			IncludeTrivial: true, Filter: SizeFilter(1, n/3, n)}, trees...)
		checkExtractMatchesReference(t, where+" partial", Extractor{Taxa: wide}, trees...)
		checkExtractMatchesReference(t, where+" partial required", Extractor{Taxa: wide, RequireComplete: true}, trees...)
	}
}

// contract collapses about a third of t's internal edges, making
// multifurcations; it returns t.
func contract(t *tree.Tree, rng *rand.Rand) *tree.Tree {
	var collapse func(nd *tree.Node)
	collapse = func(nd *tree.Node) {
		var kids []*tree.Node
		for _, c := range nd.Children {
			collapse(c)
			if !c.IsLeaf() && rng.Intn(3) == 0 {
				for _, g := range c.Children {
					g.Parent = nd
					kids = append(kids, g)
				}
				continue
			}
			kids = append(kids, c)
		}
		nd.Children = kids
	}
	collapse(t.Root)
	return t
}

// TestExtractParentedRootHasNoEdge pins the one deliberate difference
// from the reference: a root with a non-nil Parent still has no edge, so
// IncludeTrivial does not emit a degenerate empty split for it.
func TestExtractParentedRootHasNoEdge(t *testing.T) {
	root := innerN(-1, innerN(1, leafN("A", -1), leafN("B", -1)), leafN("C", -1), leafN("D", -1))
	ex := Extractor{Taxa: abcd, IncludeTrivial: true}
	want, err := ex.Extract(tree.New(root))
	if err != nil {
		t.Fatal(err)
	}
	root.Parent = &tree.Node{}
	got, err := ex.Extract(tree.New(root))
	sameExtraction(t, "parented root", got, err, want, nil)
}

// fuzzTree decodes data into a tree over wideTaxa, built with tree
// constructors: each byte opens an internal node, closes the innermost
// one, or adds a leaf (a catalogue name, an unknown name, or a repeat),
// with or without a branch length. Every shape is reachable: unary and
// empty internal nodes, any root degree, duplicates.
func fuzzTree(data []byte) *tree.Tree {
	root := &tree.Node{}
	stack := []*tree.Node{root}
	names := wideTaxa.Names()
	for i, b := range data {
		top := stack[len(stack)-1]
		length := float64(i) / 4
		switch op := b & 3; {
		case op == 0:
			nd := &tree.Node{Length: length, HasLength: b&4 != 0}
			top.AddChild(nd)
			stack = append(stack, nd)
		case op == 1 && len(stack) > 1:
			stack = stack[:len(stack)-1]
		default:
			name := "Z"
			if k := int(b>>2) - 4; k >= 0 {
				name = names[k]
			}
			top.AddChild(&tree.Node{Name: name, Length: length, HasLength: op == 2})
		}
	}
	// A lone child may stand as the root itself (so a single leaf can).
	if len(root.Children) == 1 && data[0]&0x80 != 0 {
		root = root.Children[0]
		root.Parent = nil
	}
	return tree.New(root)
}

// FuzzExtractMatchesReference is the independent oracle of the one-walk
// Extract: on any tree fuzzTree builds, in every Extractor mode, with
// ReuseMasks off and on, Extract must equal referenceExtract bit for
// bit, errors included. ci.sh runs a 10-second smoke; explore with
// `go test -fuzz=FuzzExtractMatchesReference ./internal/bipart`.
func FuzzExtractMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 2})
	f.Add([]byte{0, 2, 6, 1, 10, 14, 0, 18, 22, 1})
	f.Add([]byte{0, 0, 2, 6, 1, 1, 0, 10, 0, 14, 1, 1, 18})
	f.Add([]byte{0x84, 2, 6, 10, 14, 0, 18, 22, 26, 1, 30})
	f.Add([]byte{0, 2, 2, 1, 255, 6})
	f.Add([]byte{2, 0, 1, 6, 0, 0, 10, 1, 1, 14, 0x7e, 0xfe})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return // bound the cost per input, not robustness
		}
		tr := fuzzTree(data)
		for _, m := range extractModes() {
			checkExtractMatchesReference(t, m.name, m.ex, tr)
		}
	})
}

// BenchmarkExtract extracts an n=100 tree with ReuseMasks, as the serve
// and query paths do; in steady state it allocates nothing, and the
// benchmark fails if it does.
func BenchmarkExtract(b *testing.B) {
	ts := taxa.Generate(100)
	tr := simphy.RandomBinary(ts, rand.New(rand.NewSource(1)))
	ex := &Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	if _, err := ex.Extract(tr); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = ex.Extract(tr) }); allocs != 0 {
		b.Fatalf("Extract allocates %v times per tree in steady state, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(tr); err != nil {
			b.Fatal(err)
		}
	}
}
