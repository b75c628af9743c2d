package newick

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simphy"
	"repro/internal/taxa"
)

// TestParseLengthMatchesParseFloat: the plain-decimal fast path returns
// ParseFloat's exact bits, and everything else falls through to it.
func TestParseLengthMatchesParseFloat(t *testing.T) {
	inputs := []string{
		"", ".", "+", "-", "+.", "1.", ".5", "-.5", "+0", "-0", "-0.0", "0.000",
		"123456789012345", "1234567890123456", "0.12345678901234", "0.123456789012345",
		"999999999999999", "9999999999999999", "000000000000001.5",
		"1e5", "1E-5", "0x1p-2", " 1.5", "1.5 ", "1 0", "NaN", "-Inf", "infinity",
		"1.2.3", "--1", "+-1", "1_0", "0x_1p0", "1e400", "4.9e-324",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		digits := 1 + rng.Intn(18)
		var b strings.Builder
		if rng.Intn(4) == 0 {
			b.WriteByte("+-"[rng.Intn(2)])
		}
		dot := rng.Intn(digits + 1)
		for d := 0; d < digits; d++ {
			if d == dot {
				b.WriteByte('.')
			}
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		inputs = append(inputs, b.String(), fmt.Sprintf("%.*f", rng.Intn(12), rng.ExpFloat64()))
	}
	for _, in := range inputs {
		got, gotErr := parseLength(in)
		want, wantErr := strconv.ParseFloat(strings.TrimSpace(in), 64)
		if (gotErr != nil) != (wantErr != nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseLength(%q) = %v, %v; ParseFloat = %v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// benchTree is an n=100 tree with branch lengths, written the way
// generated collection files are (six significant digits).
func benchTree() string {
	tr := simphy.RandomBinary(taxa.Generate(100), rand.New(rand.NewSource(1)))
	return String(tr, WriteOptions{BranchLengths: true, Precision: 6})
}

// scanAll walks stmt to its End event.
func scanAll(sc *Scanner, stmt string) error {
	sc.Reset(stmt)
	for {
		ev, err := sc.Next()
		if err != nil || ev == End {
			return err
		}
	}
}

// BenchmarkScanner walks an n=100 tree's events; in steady state the
// scanner allocates nothing, and the benchmark fails if it does.
func BenchmarkScanner(b *testing.B) {
	stmt := benchTree()
	var sc Scanner
	if err := scanAll(&sc, stmt); err != nil {
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = scanAll(&sc, stmt) }); allocs != 0 {
		b.Fatalf("Scanner allocates %v times per tree in steady state, want 0", allocs)
	}
	b.SetBytes(int64(len(stmt)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scanAll(&sc, stmt); err != nil {
			b.Fatal(err)
		}
	}
}
