package collection

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/newick"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// ScanTaxa streams every source once and returns the union of all leaf
// names as a lexicographically ordered catalogue. Sources are reset before
// and after scanning.
func ScanTaxa(sources ...Source) (*taxa.Set, error) {
	all := make(unionSink)
	for _, src := range sources {
		sinks, err := scanLeaves(src, func() leafSink { return make(unionSink) })
		if err != nil {
			return nil, err
		}
		for _, sink := range sinks {
			for name := range sink.(unionSink) {
				all[name] = true
			}
		}
	}
	return all.catalogue()
}

// FirstTaxa returns the leaf names of src's first tree as a
// lexicographically ordered catalogue, under ScanTaxa's leaf rules, and
// resets src. It reads that one tree: when every tree must carry the same
// leaf set, the first one's is the whole catalogue, and a build that
// requires complete coverage rejects the first tree that differs. An
// empty source gives an empty catalogue.
func FirstTaxa(src Source) (*taxa.Set, error) {
	rd, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	first := make(unionSink)
	it, err := rd.Next()
	switch {
	case err == io.EOF:
	case err != nil:
		return nil, err
	default:
		var sc newick.Scanner
		if err := scanItem(&sc, it, first); err != nil {
			return nil, fmt.Errorf("collection: tree 1: %w", err)
		}
	}
	if err := src.Reset(); err != nil {
		return nil, err
	}
	return first.catalogue()
}

// ScanCommonTaxa streams every source once and returns the intersection of
// the leaf-name sets of all trees across all sources — the catalogue used
// by intersection-reduction variable-taxa RF.
func ScanCommonTaxa(sources ...Source) (*taxa.Set, error) {
	var common map[string]bool
	for _, src := range sources {
		sinks, err := scanLeaves(src, func() leafSink { return &commonSink{here: make(map[string]bool)} })
		if err != nil {
			return nil, err
		}
		for _, sink := range sinks {
			c := sink.(*commonSink).common
			if c == nil {
				continue // the sink saw no tree
			}
			if common == nil {
				common = c
				continue
			}
			for n := range common {
				if !c[n] {
					delete(common, n)
				}
			}
		}
	}
	names := make([]string, 0, len(common))
	for n := range common {
		names = append(names, n)
	}
	return taxa.NewSet(names)
}

// leafSink accumulates the leaf names of a stream of trees: leaf sees
// each name in tree order (the bytes are valid only during the call),
// endTree closes each tree.
type leafSink interface {
	leaf(name []byte) error
	endTree()
}

// unionSink collects every leaf name.
type unionSink map[string]bool

func (u unionSink) leaf(name []byte) error {
	if len(name) == 0 {
		return fmt.Errorf("collection: tree with unnamed leaf")
	}
	// The lookup does not allocate; only a first sighting copies the name.
	if !u[string(name)] {
		u[string(name)] = true
	}
	return nil
}

func (u unionSink) endTree() {}

// catalogue orders the collected names.
func (u unionSink) catalogue() (*taxa.Set, error) {
	names := make([]string, 0, len(u))
	for name := range u {
		names = append(names, name)
	}
	return taxa.NewSet(names)
}

// commonSink intersects the leaf-name sets of the trees it sees; common
// stays nil until the first tree ends.
type commonSink struct {
	common, here map[string]bool
}

func (c *commonSink) leaf(name []byte) error {
	c.here[string(name)] = true
	return nil
}

func (c *commonSink) endTree() {
	if c.common == nil {
		c.common, c.here = c.here, make(map[string]bool, len(c.here))
		return
	}
	for n := range c.common {
		if !c.here[n] {
			delete(c.common, n)
		}
	}
	clear(c.here)
}

// scanLeaves streams src once into sinks made by newSink and returns
// them, one per worker of a Pool. A raw statement is walked by a
// newick.Scanner, which validates the full syntax just as parsing would,
// with no tree built; a parsed tree hands over its leaf names. Of several
// bad trees it reports the first, as a serial scan would, and it reads no
// further than that. A scan runs to its end: it takes no context. src is
// reset before and after.
func scanLeaves(src Source, newSink func() leafSink) ([]leafSink, error) {
	var sinks []leafSink
	var scs []*newick.Scanner
	_, err := Pool{Workers: runtime.GOMAXPROCS(0)}.Run(context.TODO(), src, func(workers int) {
		sinks, scs = make([]leafSink, workers), make([]*newick.Scanner, workers)
		for w := range sinks {
			sinks[w], scs[w] = newSink(), new(newick.Scanner)
		}
	}, func(w, idx int, it Item) error {
		if err := scanItem(scs[w], it, sinks[w]); err != nil {
			return fmt.Errorf("collection: tree %d: %w", idx+1, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sinks, src.Reset()
}

// scanItem feeds one item's leaves to sink.
func scanItem(sc *newick.Scanner, it Item, sink leafSink) error {
	if !it.raw {
		for _, name := range it.tree.LeafNames() {
			if err := sink.leaf([]byte(name)); err != nil {
				return err
			}
		}
		sink.endTree()
		return nil
	}
	sc.Reset(it.stmt)
	for {
		ev, err := sc.Next()
		if err != nil {
			return err
		}
		switch ev {
		case newick.Leaf:
			if err := sink.leaf(sc.Label()); err != nil {
				return err
			}
		case newick.End:
			sink.endTree()
			return nil
		}
	}
}

// Map wraps src, applying f to every tree as it streams. Reset passes
// through to the underlying source.
type Map struct {
	Src Source
	F   func(*tree.Tree) (*tree.Tree, error)
}

// Next implements Source.
func (m *Map) Next() (*tree.Tree, error) {
	t, err := m.Src.Next()
	if err != nil {
		return nil, err
	}
	return m.F(t)
}

// Reset implements Source.
func (m *Map) Reset() error { return m.Src.Reset() }

// Count implements Counter when the underlying source does.
func (m *Map) Count() int {
	if c, ok := m.Src.(Counter); ok {
		return c.Count()
	}
	return -1
}

// Restricted wraps src so every tree is restricted to the given catalogue
// (intersection reduction for variable-taxa RF).
func Restricted(src Source, ts *taxa.Set) Source {
	return &Map{Src: src, F: func(t *tree.Tree) (*tree.Tree, error) {
		return tree.Restrict(t, ts.Contains)
	}}
}
