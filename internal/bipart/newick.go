package bipart

import "repro/internal/newick"

// ExtractNewick is Extract over one raw Newick statement, with no tree in
// between: a newick.Scanner walks the text and feeds its events to the
// accumulator Extract uses (see accum), with leaf labels looked up in the
// catalogue as byte views. The result equals Extract(newick.Parse(stmt))
// bit for bit and in the same postorder, under every Extractor setting.
// Syntax errors are the parser's *newick.ParseError and take precedence
// over catalogue errors, which carry Extract's messages.
//
// With ReuseMasks set, ExtractNewick allocates nothing in steady state.
func (e *Extractor) ExtractNewick(stmt string) ([]Bipartition, error) {
	e.begin()
	sc := &e.scan
	sc.Reset(stmt)
	for {
		ev, err := sc.Next()
		if err != nil {
			return e.finish(err)
		}
		switch ev {
		case newick.Open:
			e.openSubtree()
		case newick.Leaf:
			idx, _ := e.Taxa.IndexBytes(sc.Label())
			length, has := sc.Length()
			if !e.leaf(idx, length, has) {
				e.badLeaf(idx, sc.Label())
			}
		case newick.Close:
			e.closeSubtree(sc.Length())
		case newick.End:
			return e.finish(nil)
		}
	}
}
