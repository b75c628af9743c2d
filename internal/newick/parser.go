// Package newick implements reading and writing of phylogenetic trees in
// the Newick format, the interchange format of the paper's datasets.
//
// The grammar covers nested subtrees, leaf and internal labels (bare,
// underscore-encoded, or single-quoted), branch lengths, nested bracket
// comments, and multi-tree files (one tree per ';'). Scanner is its one
// implementation; Parse and Reader build trees from its events. The
// Reader type streams trees one at a time so that collections with
// hundreds of thousands of trees (the paper's Insect set has 149,278)
// never need to be resident in memory at once — the property BFHRF's
// dynamic loading depends on.
package newick

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/tree"
)

// ParseError describes a syntax error with its byte offset (and, when
// known, 1-based line number) within the input stream.
type ParseError struct {
	Pos  int
	Line int
	Msg  string
	// Limit marks errors produced by a resource limit (MaxTreeBytes,
	// MaxTaxa) rather than malformed syntax; both are recoverable the
	// same way (skip the tree), but diagnostics distinguish them.
	Limit bool
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("newick: parse error at line %d (offset %d): %s", e.Line, e.Pos, e.Msg)
	}
	return fmt.Sprintf("newick: parse error at offset %d: %s", e.Pos, e.Msg)
}

// Limits bounds the resources a single tree may consume. Zero values mean
// unlimited. Exceeding a limit yields a *ParseError with Limit set — a
// clean, skippable per-tree failure instead of a runaway allocation.
type Limits struct {
	// MaxTreeBytes caps the bytes read for one tree: from the end of its
	// first token through its ';' (and, in a stream, through the first
	// token of the tree after it).
	MaxTreeBytes int
	// MaxTaxa caps the number of leaves in one tree.
	MaxTaxa int
}

// Parse parses a single Newick tree from s. Trailing input after the
// terminating ';' (other than whitespace and comments) is an error; a
// blank s is io.EOF.
func Parse(s string) (*tree.Tree, error) {
	return ParseLimits(s, Limits{})
}

// ParseLimits is Parse under per-tree resource limits. s is read as a
// whole stream, so its end counts against the byte budget.
func ParseLimits(s string, lim Limits) (*tree.Tree, error) {
	b := builders.Get().(*builder)
	defer b.release()
	b.sc.Reset(s)
	b.sc.limit(lim, lim.MaxTreeBytes, true)
	return b.build()
}

// MustParse is Parse but panics on error. For tests and literals.
func MustParse(s string) *tree.Tree {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

// builder assembles a tree from a Scanner's events. Nodes are recorded
// by index while the statement is scanned, so the tree can then be laid
// out in one node slab, one children slab and one label string: four
// allocations per tree, whatever its size.
type builder struct {
	sc    Scanner
	recs  []nodeRec
	open  []int32 // indices of the internal nodes not yet closed
	names []byte  // decoded labels, back to back
}

// nodeRec is one node in preorder: its parent's index (-1 for the root),
// child count, label span in names and branch length.
type nodeRec struct {
	parent, kids int32
	name, end    int32
	length       float64
	hasLength    bool
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// release returns b to the pool without keeping the statement alive.
func (b *builder) release() {
	b.sc.Reset("")
	builders.Put(b)
}

// build scans the statement b.sc was Reset to and returns its tree.
func (b *builder) build() (*tree.Tree, error) {
	b.recs, b.open, b.names = b.recs[:0], b.open[:0], b.names[:0]
	for {
		ev, err := b.sc.Next()
		if err != nil {
			if b.sc.blank {
				return nil, io.EOF
			}
			return nil, err
		}
		switch ev {
		case Open:
			b.open = append(b.open, b.add())
		case Leaf:
			b.label(b.add())
		case Close:
			top := len(b.open) - 1
			b.label(b.open[top])
			b.open = b.open[:top]
		case End:
			return b.tree(), nil
		}
	}
}

// add records a new node under the innermost open one.
func (b *builder) add() int32 {
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
		b.recs[parent].kids++
	}
	b.recs = append(b.recs, nodeRec{parent: parent})
	return int32(len(b.recs) - 1)
}

// label stores the scanner's current label and length on node i.
func (b *builder) label(i int32) {
	r := &b.recs[i]
	r.name = int32(len(b.names))
	b.names = append(b.names, b.sc.Label()...)
	r.end = int32(len(b.names))
	r.length, r.hasLength = b.sc.Length()
}

// tree lays the recorded nodes out. A node's children window is cut with
// cap == len, so a later AddChild reallocates instead of overwriting the
// next node's children; leaves keep nil Children.
func (b *builder) tree() *tree.Tree {
	nodes := make([]tree.Node, len(b.recs))
	kids := make([]*tree.Node, len(b.recs)-1)
	names := string(b.names)
	for i := range b.recs {
		r, n := &b.recs[i], &nodes[i]
		n.Name = names[r.name:r.end]
		n.Length, n.HasLength = r.length, r.hasLength
		if r.kids > 0 {
			n.Children = kids[:0:r.kids]
			kids = kids[r.kids:]
		}
		if r.parent >= 0 {
			p := &nodes[r.parent]
			n.Parent = p
			p.Children = append(p.Children, n)
		}
	}
	return tree.New(&nodes[0])
}
