// Package taxa provides taxon catalogues: immutable, ordered mappings
// between taxon names and dense integer indices.
//
// Every bipartition in this repository is encoded as a bit vector whose bit
// positions are taxon indices; the Set type is the single source of truth
// for that ordering. Following the paper (and Dendropy's convention), taxa
// are ordered lexicographically by name unless an explicit order is given.
package taxa

import (
	"fmt"
	"sort"
	"strings"
)

// Set is an immutable catalogue of taxon names with dense indices
// 0..Len()-1. The zero value is an empty set.
type Set struct {
	names []string       // index -> name, in catalogue order
	index map[string]int // name -> index
}

// NewSet builds a catalogue from names, sorted lexicographically.
// Duplicate or empty names are an error.
func NewSet(names []string) (*Set, error) {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	return NewOrderedSet(sorted)
}

// NewOrderedSet builds a catalogue preserving the given order.
// Duplicate or empty names are an error.
func NewOrderedSet(names []string) (*Set, error) {
	s := &Set{
		names: make([]string, len(names)),
		index: make(map[string]int, len(names)),
	}
	copy(s.names, names)
	for i, n := range s.names {
		if n == "" {
			return nil, fmt.Errorf("taxa: empty taxon name at position %d", i)
		}
		if prev, dup := s.index[n]; dup {
			return nil, fmt.Errorf("taxa: duplicate taxon name %q (positions %d and %d)", n, prev, i)
		}
		s.index[n] = i
	}
	return s, nil
}

// MustNewSet is NewSet but panics on error. For tests and literals.
func MustNewSet(names []string) *Set {
	s, err := NewSet(names)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of taxa n.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.names)
}

// Name returns the name of taxon i. It panics if i is out of range.
func (s *Set) Name(i int) string { return s.names[i] }

// Names returns a copy of all names in catalogue order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Index returns the index of name, or (-1, false) if absent.
func (s *Set) Index(name string) (int, bool) {
	if s == nil {
		return -1, false
	}
	i, ok := s.index[name]
	if !ok {
		return -1, false
	}
	return i, true
}

// IndexBytes is Index for a name held as bytes — a label view straight
// out of a Newick statement. It does not allocate.
func (s *Set) IndexBytes(name []byte) (int, bool) {
	if s == nil {
		return -1, false
	}
	i, ok := s.index[string(name)]
	if !ok {
		return -1, false
	}
	return i, true
}

// Contains reports whether name is in the catalogue.
func (s *Set) Contains(name string) bool {
	_, ok := s.Index(name)
	return ok
}

// Equal reports whether two catalogues hold the same names in the same order.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, n := range s.names {
		if o.names[i] != n {
			return false
		}
	}
	return true
}

// SameNames reports whether two catalogues hold the same names,
// irrespective of order.
func (s *Set) SameNames(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for _, n := range s.names {
		if !o.Contains(n) {
			return false
		}
	}
	return true
}

// Intersect returns a new lexicographically ordered catalogue holding the
// names present in both s and o. Used for variable-taxa RF via intersection
// reduction (paper §VII.E).
func (s *Set) Intersect(o *Set) *Set {
	var common []string
	for _, n := range s.names {
		if o.Contains(n) {
			common = append(common, n)
		}
	}
	out, err := NewSet(common)
	if err != nil {
		// Unreachable: names from a valid Set are unique and non-empty.
		panic(err)
	}
	return out
}

// Union returns a new lexicographically ordered catalogue holding the names
// present in either s or o.
func (s *Set) Union(o *Set) *Set {
	seen := make(map[string]bool, s.Len()+o.Len())
	var all []string
	for _, n := range s.names {
		if !seen[n] {
			seen[n] = true
			all = append(all, n)
		}
	}
	for _, n := range o.names {
		if !seen[n] {
			seen[n] = true
			all = append(all, n)
		}
	}
	out, err := NewSet(all)
	if err != nil {
		panic(err)
	}
	return out
}

// Mapping returns, for each index in s, the index of the same name in o, or
// -1 if the name is absent from o. Used to project bipartitions between
// catalogues.
func (s *Set) Mapping(o *Set) []int {
	m := make([]int, s.Len())
	for i, n := range s.names {
		if j, ok := o.Index(n); ok {
			m[i] = j
		} else {
			m[i] = -1
		}
	}
	return m
}

// String renders the catalogue compactly, for diagnostics.
func (s *Set) String() string {
	if s.Len() == 0 {
		return "taxa.Set{}"
	}
	var b strings.Builder
	b.WriteString("taxa.Set{")
	for i, n := range s.names {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 8 && len(s.names) > 10 {
			fmt.Fprintf(&b, "… +%d more", len(s.names)-i)
			break
		}
		b.WriteString(n)
	}
	b.WriteString("}")
	return b.String()
}

// Generate returns a synthetic catalogue of n taxa named t0000, t0001, …
// in lexicographic (= numeric) order. Handy for simulations and tests.
func Generate(n int) *Set {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%04d", i)
	}
	s, err := NewOrderedSet(names)
	if err != nil {
		panic(err)
	}
	return s
}
