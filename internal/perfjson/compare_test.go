package perfjson

import (
	"math/rand"
	"strings"
	"testing"
)

// benchSuite builds a valid suite of n records with deterministic values.
func benchSuite(n int) *Suite {
	s := &Suite{Schema: SchemaVersion, Scale: 0.02}
	for i := 0; i < n; i++ {
		s.Records = append(s.Records, Record{
			Workload: "w" + string(rune('a'+i)), Engine: "DS",
			N: 100, R: 50, Workers: 1, Reps: 5,
			NsOpMedian:    int64(1e9) * int64(i+1),
			NsOpMin:       int64(9e8) * int64(i+1),
			PeakHeapMB:    10 * float64(i+1),
			PeakHeapMBMin: 9 * float64(i+1),
		})
	}
	return s
}

func TestCompareIdenticalPasses(t *testing.T) {
	base, cur := benchSuite(4), benchSuite(4)
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() || len(cmp.Regressions) != 0 || len(cmp.Improvements) != 0 {
		t.Errorf("identical suites should pass clean: %+v", cmp)
	}
	if cmp.Compared != 4 {
		t.Errorf("Compared = %d, want 4", cmp.Compared)
	}
}

func TestCompareJitterWithinThresholdPasses(t *testing.T) {
	// ≤10% jitter on both median and min, in both directions, must pass
	// at threshold 0.10 — the acceptance condition for identical runs.
	base := benchSuite(6)
	cur := benchSuite(6)
	rng := rand.New(rand.NewSource(1))
	for i := range cur.Records {
		j := 0.90 + 0.20*rng.Float64() // factor in [0.90, 1.10]
		cur.Records[i].NsOpMedian = int64(float64(cur.Records[i].NsOpMedian) * j)
		cur.Records[i].NsOpMin = int64(float64(cur.Records[i].NsOpMin) * j)
	}
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Errorf("jitter within threshold should pass: %+v", cmp.Regressions)
	}
}

func TestCompareDetectsSlowdown(t *testing.T) {
	// A 2× slowdown in every record must fail the gate.
	base := benchSuite(3)
	cur := benchSuite(3)
	for i := range cur.Records {
		cur.Records[i].NsOpMedian *= 2
		cur.Records[i].NsOpMin *= 2
	}
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OK() {
		t.Fatal("2x slowdown must fail the gate")
	}
	if len(cmp.Regressions) != 3 {
		t.Errorf("Regressions = %d, want 3", len(cmp.Regressions))
	}
	for _, d := range cmp.Regressions {
		if d.Metric != "time" || d.Rel < 0.9 || d.Rel > 1.1 {
			t.Errorf("unexpected delta: %+v", d)
		}
	}
}

func TestCompareMedianSpikeAloneIsNoise(t *testing.T) {
	// The median regressed but the min did not: one noisy repetition, not
	// a regression.
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Records[0].NsOpMedian *= 2
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Errorf("median-only spike should be treated as noise: %+v", cmp.Regressions)
	}
}

func TestCompareDetectsImprovement(t *testing.T) {
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Records[0].NsOpMedian /= 3
	cur.Records[0].NsOpMin /= 3
	cmp, err := Compare(base, cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() || len(cmp.Improvements) != 1 {
		t.Errorf("improvement should pass and be reported: %+v", cmp)
	}
}

func TestCompareHeapRegression(t *testing.T) {
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Records[0].PeakHeapMB = base.Records[0].PeakHeapMB*1.5 + 2
	cur.Records[0].PeakHeapMBMin = base.Records[0].PeakHeapMBMin*1.5 + 2
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OK() || len(cmp.Regressions) != 1 || cmp.Regressions[0].Metric != "heap" {
		t.Errorf("heap growth should regress: %+v", cmp)
	}
}

func TestCompareHeapMedianSpikeAloneIsNoise(t *testing.T) {
	// The median peak grew 50% but the min did not move: GC caught the
	// repetitions at bad moments, the floor is unchanged.
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Records[0].PeakHeapMB = base.Records[0].PeakHeapMB * 1.5
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Errorf("heap median-only spike should be treated as noise: %+v", cmp.Regressions)
	}
}

func TestCompareHeapFloorAbsorbsTinyDeltas(t *testing.T) {
	// +50% relative but under the absolute floor: allocator size-class
	// wobble, not a regression.
	base := benchSuite(1)
	cur := benchSuite(1)
	base.Records[0].PeakHeapMB, base.Records[0].PeakHeapMBMin = 0.4, 0.3
	cur.Records[0].PeakHeapMB, cur.Records[0].PeakHeapMBMin = 0.6, 0.5
	cmp, err := Compare(base, cur, Options{Threshold: 0.10, HeapFloorMB: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Errorf("sub-floor heap delta should pass: %+v", cmp.Regressions)
	}
}

func TestCompareZeroHeapBaseline(t *testing.T) {
	// Zero-heap baseline growing past the floor must regress without
	// dividing by zero.
	base := benchSuite(1)
	cur := benchSuite(1)
	base.Records[0].PeakHeapMB, base.Records[0].PeakHeapMBMin = 0, 0
	cur.Records[0].PeakHeapMB, cur.Records[0].PeakHeapMBMin = 5, 4
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OK() {
		t.Error("0 -> 5 MB heap growth should regress")
	}
}

func TestCompareMissingWorkloadFailsGate(t *testing.T) {
	base := benchSuite(3)
	cur := benchSuite(2) // wc vanished
	cmp, err := Compare(base, cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OK() {
		t.Fatal("vanished benchmark must fail the gate")
	}
	if len(cmp.OnlyInBase) != 1 || cmp.OnlyInBase[0] != "wc/DS" {
		t.Errorf("OnlyInBase = %v", cmp.OnlyInBase)
	}
}

func TestCompareNewWorkloadPasses(t *testing.T) {
	base := benchSuite(2)
	cur := benchSuite(3)
	cmp, err := Compare(base, cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Error("new benchmark should pass the gate")
	}
	if len(cmp.OnlyInCurrent) != 1 || cmp.OnlyInCurrent[0] != "wc/DS" {
		t.Errorf("OnlyInCurrent = %v", cmp.OnlyInCurrent)
	}
}

func TestCompareScaleMismatch(t *testing.T) {
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Scale = 0.1
	if _, err := Compare(base, cur, Options{}); err == nil {
		t.Error("scale mismatch should be an error")
	}
}

func TestCompareRejectsInvalidSuite(t *testing.T) {
	base := benchSuite(1)
	cur := benchSuite(1)
	cur.Records[0].NsOpMedian = 0 // invalid: zero time
	if _, err := Compare(base, cur, Options{}); err == nil {
		t.Error("invalid current suite should be an error")
	}
	base.Records[0].Workload = ""
	if _, err := Compare(base, benchSuite(1), Options{}); err == nil {
		t.Error("invalid baseline should be an error")
	}
}

func TestComparisonWriteText(t *testing.T) {
	base := benchSuite(2)
	cur := benchSuite(2)
	cur.Records[0].NsOpMedian *= 2
	cur.Records[0].NsOpMin *= 2
	cmp, err := Compare(base, cur, Options{Threshold: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cmp.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FAIL", "REGRESSED", "wa/DS", "time"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestComparisonNamesBothHosts: the report names the machine behind each
// suite, "unrecorded" for a suite without one, and hosts do not gate.
func TestComparisonNamesBothHosts(t *testing.T) {
	base, cur := benchSuite(2), benchSuite(2)
	cur.Host = &Host{CPU: "Test CPU", NumCPU: 4, GOMAXPROCS: 3, GoVersion: "go1.99"}
	cmp, err := Compare(base, cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.OK() {
		t.Fatal("a host difference alone failed the gate")
	}
	var sb strings.Builder
	if err := cmp.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"baseline host: unrecorded", "current host:  Test CPU, nproc 4, GOMAXPROCS 3, go1.99"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}
