package newick

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func TestMaxTreeBytes(t *testing.T) {
	r := NewReader(strings.NewReader("(" + strings.Repeat("a,", 500) + "b);"))
	r.SetLimits(Limits{MaxTreeBytes: 64})
	_, err := r.Read()
	var pe *ParseError
	if !errors.As(err, &pe) || !pe.Limit {
		t.Fatalf("oversized tree: got %v, want limit ParseError", err)
	}
	if !strings.Contains(pe.Msg, "64-byte") {
		t.Fatalf("limit message %q", pe.Msg)
	}
}

func TestMaxTaxa(t *testing.T) {
	r := NewReader(strings.NewReader("(a,(b,(c,(d,e))));"))
	r.SetLimits(Limits{MaxTaxa: 3})
	_, err := r.Read()
	var pe *ParseError
	if !errors.As(err, &pe) || !pe.Limit {
		t.Fatalf("over-taxa tree: got %v, want limit ParseError", err)
	}

	// At or under the limit is fine.
	r = NewReader(strings.NewReader("(a,(b,c));"))
	r.SetLimits(Limits{MaxTaxa: 3})
	if _, err := r.Read(); err != nil {
		t.Fatalf("tree at taxa limit rejected: %v", err)
	}
}

func TestSkipTreeResyncs(t *testing.T) {
	// Middle tree is malformed; SkipTree should land us on the third.
	in := "(a,b);\n(a,,b);\n(c,d);\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first tree: %v", err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("malformed tree parsed")
	}
	if err := r.SkipTree(); err != nil {
		t.Fatalf("SkipTree: %v", err)
	}
	tr, err := r.Read()
	if err != nil {
		t.Fatalf("tree after resync: %v", err)
	}
	names := tr.LeafNames()
	if len(names) != 2 || names[0] != "c" {
		t.Fatalf("resync landed on wrong tree: %v", names)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF after last tree, got %v", err)
	}
}

func TestSkipTreeHonorsQuotesAndComments(t *testing.T) {
	in := "(a,'se;mi'[also;here],);\n(x,y);\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err == nil {
		t.Fatal("malformed tree parsed")
	}
	if err := r.SkipTree(); err != nil {
		t.Fatalf("SkipTree: %v", err)
	}
	tr, err := r.Read()
	if err != nil {
		t.Fatalf("tree after resync: %v", err)
	}
	if names := tr.LeafNames(); len(names) != 2 || names[0] != "x" {
		t.Fatalf("resync landed on wrong tree: %v", names)
	}
}

func TestParseErrorCarriesLine(t *testing.T) {
	r := NewReader(strings.NewReader("(a,b);\n(c,d);\n(e,,f);\n"))
	r.Read()
	r.Read()
	_, err := r.Read()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v", err)
	}
	if pe.Line != 3 {
		t.Fatalf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("message lacks line: %q", pe.Error())
	}
}

func TestInjectedParseFaultLooksMalformed(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointParseTree, Kind: faultinject.KindError, Hit: 2,
	})
	r := NewReader(strings.NewReader("(a,b);(c,d);(e,f);"))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first tree: %v", err)
	}
	_, err := r.Read()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("injected fault is %T (%v), want *ParseError", err, err)
	}
	// Recovery path is identical to a real malformed tree.
	if err := r.SkipTree(); err != nil {
		t.Fatalf("SkipTree after injected fault: %v", err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("tree after injected fault: %v", err)
	}
}

// TestBudgetsMatchReference sweeps MaxTreeBytes (and MaxTaxa) across
// streams whose trees, comments, quotes and blank tails straddle every
// window boundary: each Read and ParseLimits must fail or succeed exactly
// where the reference lexer does.
func TestBudgetsMatchReference(t *testing.T) {
	inputs := []string{
		"(a,b,c,d);",
		"(a,b);\n(" + strings.Repeat("a,", 12) + "b);\n(c,d);\n\n",
		"  [lead ; in]\n('q;u''o',b_c)r:1.5[x];\n'solo';\n[tail",
		"leaf;(x:1,(y,z):2);   ",
		"(a,b);'unterminated",
		"((a,b)[c],(c,d)'e');(f,g);",
	}
	for _, in := range inputs {
		for budget := 0; budget <= len(in)+2; budget++ {
			for _, taxa := range []int{0, 2, 3} {
				lim := Limits{MaxTreeBytes: budget, MaxTaxa: taxa}
				got, gotErr := ParseLimits(in, lim)
				want, wantErr := refParse(in, lim)
				if msg := sameOutcome(got, gotErr, want, wantErr); msg != "" {
					t.Fatalf("ParseLimits(%q, %+v): %s", in, lim, msg)
				}
				r := NewReader(bufio.NewReaderSize(strings.NewReader(in), 16))
				r.SetLimits(lim)
				ref := newRefReader(strings.NewReader(in))
				ref.SetLimits(lim)
				for i := 0; ; i++ {
					got, gotErr := r.Read()
					want, wantErr := ref.Read()
					if msg := sameOutcome(got, gotErr, want, wantErr); msg != "" {
						t.Fatalf("Reader(%q, %+v) tree %d: %s", in, lim, i, msg)
					}
					if gotErr != nil {
						break
					}
				}
			}
		}
	}
}
