package newick

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tree"
)

// FuzzParse is the native-fuzzing counterpart of the quick-check tests:
// the parser must never panic, and any tree it accepts must survive a
// write → re-parse round trip. Run the stored corpus as part of `go test`;
// explore with `go test -fuzz=FuzzParse ./internal/newick` (ci.sh does a
// 10-second smoke run).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"(a,b);",
		"((a:1,b:2):0.5,c:3);",
		"(a,(b,(c,(d,e))));",
		"('quoted label',b_c)root;",
		"((A,B)90:0.1,(C,D)75:0.2);",
		"(a[comment],b[nested[deep]]);",
		"(,,);",
		"(a:1e-5,b:1E5,c:-0.5);",
		";",
		"(a,b)(c,d);",
		"((((((((((a,b))))))))));",
		"(a\n ,\tb) ;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return // bound parse cost, not robustness
		}
		parsed, err := Parse(input)
		if err != nil {
			return
		}
		if parsed == nil || parsed.Root == nil {
			t.Fatalf("Parse(%q) returned nil tree without error", input)
		}
		// Round trip: what the writer emits, the parser must accept and
		// re-emit identically (writer output is canonical).
		out := String(parsed, DefaultWriteOptions())
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("round trip of %q failed on %q: %v", input, out, err)
		}
		out2 := String(again, DefaultWriteOptions())
		if out != out2 {
			t.Fatalf("canonical form is not a fixed point:\n first: %s\nsecond: %s", out, out2)
		}
	})
}

// FuzzReaderMultiTree feeds the streaming reader: it must consume any
// input to EOF or a clean error without panicking, and the number of
// trees it yields must match a reference count of top-level ';'.
func FuzzReaderMultiTree(f *testing.F) {
	f.Add("(a,b);(c,d);(e,f);")
	f.Add("(a,b);\n\n(c,(d,e));\n")
	f.Add("no trees here")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return
		}
		r := NewReader(strings.NewReader(input))
		for i := 0; i < 1<<12; i++ {
			tr, err := r.Read()
			if err != nil {
				return
			}
			if tr == nil {
				t.Fatal("Read returned nil tree without error")
			}
		}
		t.Fatalf("reader yielded over %d trees from %d bytes", 1<<12, len(input))
	})
}

// FuzzParseMatchesReference holds Parse, ParseLimits and Reader to the
// retired lexer/parser in reference_test.go: the same trees (names,
// length bits, child order) and the same *ParseError (Msg, Line, Limit
// and Pos, byte-budget errors included), for single statements and for
// multi-tree streams read through small and default buffers, with and
// without Limits.
func FuzzParseMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"(a,b);",
		"((a:1,b:2):0.5,c:3);\n(d,(e,f)g);",
		"('q;uo''te',b_c)root[c;[n]];(x,y);",
		"(a,b;c);(d,e);",
		"(a,b,c,d);",
		"  [lead]\n(a,(b,(c,(d,e))));\n\n",
		"(a,b);(c,d",
		"(a,b);[open",
		"(a,b);'open",
		"a;b;",
		"(a:1e-5,b:-.5,c:+1);",
		"(A,B,C);(A,B,D);",
	} {
		f.Add(seed, uint16(0), uint8(0))
		f.Add(seed, uint16(9), uint8(2))
	}
	f.Fuzz(func(t *testing.T, input string, maxBytes uint16, maxTaxa uint8) {
		if len(input) > 1<<14 {
			return
		}
		for _, lim := range []Limits{{}, {MaxTreeBytes: int(maxBytes), MaxTaxa: int(maxTaxa)}} {
			got, gotErr := ParseLimits(input, lim)
			want, wantErr := refParse(input, lim)
			if msg := sameOutcome(got, gotErr, want, wantErr); msg != "" {
				t.Fatalf("ParseLimits(%q, %+v): %s", input, lim, msg)
			}
			for _, size := range []int{16, 4096} {
				r := NewReader(bufio.NewReaderSize(strings.NewReader(input), size))
				r.SetLimits(lim)
				ref := newRefReader(strings.NewReader(input))
				ref.SetLimits(lim)
				for i := 0; ; i++ {
					got, gotErr := r.Read()
					want, wantErr := ref.Read()
					if msg := sameOutcome(got, gotErr, want, wantErr); msg != "" {
						t.Fatalf("Reader(%q, %+v, buffer %d) tree %d: %s", input, lim, size, i, msg)
					}
					if gotErr != nil {
						break
					}
				}
			}
		}
	})
}

// sameOutcome compares one parse against the reference's, returning a
// description of the first difference.
func sameOutcome(got *tree.Tree, gotErr error, want *tree.Tree, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var g, w *ParseError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
			if gotErr != wantErr {
				return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
			}
			return ""
		}
		if *g != *w {
			return fmt.Sprintf("error %+v, reference %+v", *g, *w)
		}
		return ""
	}
	return sameNode(got.Root, want.Root, nil)
}

func sameNode(a, b, parent *tree.Node) string {
	if a.Parent != parent {
		return fmt.Sprintf("node %q: wrong parent pointer", a.Name)
	}
	if a.Name != b.Name || a.HasLength != b.HasLength || math.Float64bits(a.Length) != math.Float64bits(b.Length) {
		return fmt.Sprintf("node %q:%v(%v), reference %q:%v(%v)", a.Name, a.Length, a.HasLength, b.Name, b.Length, b.HasLength)
	}
	if len(a.Children) != len(b.Children) || (a.Children == nil) != (b.Children == nil) {
		return fmt.Sprintf("node %q: %d children, reference %d", a.Name, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if msg := sameNode(a.Children[i], b.Children[i], a); msg != "" {
			return msg
		}
	}
	return ""
}
