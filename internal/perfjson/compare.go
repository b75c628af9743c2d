package perfjson

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/tabfmt"
)

// Options tunes the comparator's noise rejection.
type Options struct {
	// Threshold is the relative slowdown above which a metric counts as
	// regressed (0.10 = 10%). Non-positive values fall back to the
	// default.
	Threshold float64
	// HeapFloorMB is the absolute peak-heap delta below which heap
	// changes are ignored: tiny workloads jitter by whole allocator
	// size-classes, which dwarfs any relative threshold. Non-positive
	// values fall back to the default.
	HeapFloorMB float64
}

// DefaultThreshold is the gate used by ci and the committed baselines.
const DefaultThreshold = 0.10

// DefaultHeapFloorMB ignores sub-mebibyte heap wobble.
const DefaultHeapFloorMB = 1.0

func (o Options) threshold() float64 {
	if o.Threshold <= 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

func (o Options) heapFloor() float64 {
	if o.HeapFloorMB <= 0 {
		return DefaultHeapFloorMB
	}
	return o.HeapFloorMB
}

// Delta is one metric's change between baseline and current.
type Delta struct {
	Key    string // workload/engine
	Metric string // "time" or "heap"
	// Base and Cur are the metric values (ns/op median, or peak MiB).
	Base, Cur float64
	// Rel is (Cur-Base)/Base.
	Rel float64
}

func (d Delta) String() string {
	return fmt.Sprintf("%s %s: %+.1f%% (%.4g -> %.4g)", d.Key, d.Metric, d.Rel*100, d.Base, d.Cur)
}

// Comparison is the outcome of gating a current suite against a baseline.
type Comparison struct {
	Opts Options
	// BaseHost and CurHost are the suites' measuring machines (nil when
	// unrecorded). They are reported, not gated on: numbers from two
	// hosts compare the hardware as much as the code.
	BaseHost, CurHost *Host
	// Compared counts (workload, engine) pairs present in both suites.
	Compared int
	// Regressions and Improvements hold deltas past the threshold;
	// everything within the noise band is reported in neither.
	Regressions  []Delta
	Improvements []Delta
	// OnlyInBase lists keys the current run no longer measures — a
	// vanished benchmark fails the gate, since dropping a workload must
	// not be a way to hide a regression.
	OnlyInBase []string
	// OnlyInCurrent lists new keys with no baseline; they pass the gate
	// and become part of the next committed baseline.
	OnlyInCurrent []string
}

// OK reports whether the gate passes: no regressions and no vanished
// benchmarks.
func (c *Comparison) OK() bool {
	return len(c.Regressions) == 0 && len(c.OnlyInBase) == 0
}

// Compare gates cur against base. Both suites must be valid (as
// Encode/Decode guarantee); suites recorded at different -scale factors
// are rejected since their workloads ran different sizes.
//
// Noise rejection: a time regression requires BOTH the median and the
// min of the k repetitions to slow down past the threshold — a single
// descheduled repetition inflates the median far less than the mean and
// never inflates the min, so ≤threshold jitter on identical code passes.
// Heap regressions additionally require the absolute delta to exceed
// HeapFloorMB.
func Compare(base, cur *Suite, opts Options) (*Comparison, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	if base.Scale != 0 && cur.Scale != 0 && base.Scale != cur.Scale {
		return nil, fmt.Errorf("perfjson: scale mismatch: baseline %g vs current %g", base.Scale, cur.Scale)
	}
	cmp := &Comparison{Opts: opts, BaseHost: base.Host, CurHost: cur.Host}
	th := opts.threshold()
	baseByKey := base.byKey()
	curByKey := cur.byKey()

	keys := make([]string, 0, len(baseByKey))
	for k := range baseByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := baseByKey[k]
		c, ok := curByKey[k]
		if !ok {
			cmp.OnlyInBase = append(cmp.OnlyInBase, k)
			continue
		}
		cmp.Compared++

		relMed := rel(float64(b.NsOpMedian), float64(c.NsOpMedian))
		relMin := rel(float64(b.NsOpMin), float64(c.NsOpMin))
		d := Delta{Key: k, Metric: "time", Base: float64(b.NsOpMedian), Cur: float64(c.NsOpMedian), Rel: relMed}
		switch {
		case relMed > th && relMin > th:
			cmp.Regressions = append(cmp.Regressions, d)
		case relMed < -th && relMin < -th:
			cmp.Improvements = append(cmp.Improvements, d)
		}

		// Heap follows the same median-AND-min rule as time: GC timing
		// inflates individual sampled peaks, but a real memory regression
		// also moves the floor. Deltas under the absolute floor are
		// allocator wobble regardless of their relative size.
		floor := opts.heapFloor()
		hd := Delta{Key: k, Metric: "heap", Base: b.PeakHeapMB, Cur: c.PeakHeapMB, Rel: rel(b.PeakHeapMB, c.PeakHeapMB)}
		switch {
		case grew(b.PeakHeapMB, c.PeakHeapMB, th, floor) && grew(b.PeakHeapMBMin, c.PeakHeapMBMin, th, floor):
			cmp.Regressions = append(cmp.Regressions, hd)
		case grew(c.PeakHeapMB, b.PeakHeapMB, th, floor) && grew(c.PeakHeapMBMin, b.PeakHeapMBMin, th, floor):
			cmp.Improvements = append(cmp.Improvements, hd)
		}
	}
	curKeys := make([]string, 0, len(curByKey))
	for k := range curByKey {
		if _, ok := baseByKey[k]; !ok {
			curKeys = append(curKeys, k)
		}
	}
	sort.Strings(curKeys)
	cmp.OnlyInCurrent = curKeys
	return cmp, nil
}

// rel returns (cur-base)/base, guarding the base == 0 and non-finite
// cases: a zero baseline makes any growth infinitely regressed, which the
// callers above decide with absolute floors instead.
func rel(base, cur float64) float64 {
	if base == 0 || math.IsNaN(base) || math.IsNaN(cur) {
		return 0
	}
	return (cur - base) / base
}

// grew reports whether cur exceeds base by more than the absolute floor
// AND the relative threshold (a zero base passes the relative test by
// definition — any above-floor growth from nothing is real).
func grew(base, cur, th, floor float64) bool {
	if cur-base <= floor {
		return false
	}
	return base == 0 || (cur-base)/base > th
}

// WriteText renders the comparison for humans: the verdict, every delta
// past the threshold, and the membership differences.
func (c *Comparison) WriteText(w io.Writer) error {
	verdict := "PASS"
	if !c.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "perf gate: %s (%d compared, %d regressed, %d improved, threshold %.0f%%)\n",
		verdict, c.Compared, len(c.Regressions), len(c.Improvements), c.Opts.threshold()*100)
	fmt.Fprintf(w, "baseline host: %s\ncurrent host:  %s\n", c.BaseHost, c.CurHost)
	if len(c.Regressions)+len(c.Improvements) > 0 {
		tab := tabfmt.New("", "Direction", "Workload/Engine", "Metric", "Baseline", "Current", "Delta")
		for _, d := range c.Regressions {
			tab.AddRow("REGRESSED", d.Key, d.Metric, fmt.Sprintf("%.4g", d.Base), fmt.Sprintf("%.4g", d.Cur), fmt.Sprintf("%+.1f%%", d.Rel*100))
		}
		for _, d := range c.Improvements {
			tab.AddRow("improved", d.Key, d.Metric, fmt.Sprintf("%.4g", d.Base), fmt.Sprintf("%.4g", d.Cur), fmt.Sprintf("%+.1f%%", d.Rel*100))
		}
		if err := tab.WriteText(w); err != nil {
			return err
		}
	}
	for _, k := range c.OnlyInBase {
		fmt.Fprintf(w, "missing: %s is in the baseline but was not measured (gate fails)\n", k)
	}
	for _, k := range c.OnlyInCurrent {
		fmt.Fprintf(w, "new: %s has no baseline yet\n", k)
	}
	return nil
}
