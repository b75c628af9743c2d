package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/collection"
	"repro/internal/day"
	"repro/internal/newick"
	"repro/internal/tree"
)

// Share of the measuring time each batch phase gets.
const (
	batchPassShare    = 0.6 // query files → query_tps
	batchRequestShare = 0.4 // requests → p50_ms, p90_ms
	maxRequestTrees   = 4096
	batchSlots        = 5
	minWindow         = 100
)

// runBatch drives a batch workload through the library's API: build the
// hash from the reference file (setup_s), answer the query collection
// (Q = R) file by file, round after round (query_tps), then answer
// requests one call at a time (p50_ms, p90_ms).
func runBatch(r *run) error {
	cfg := repro.Config{Workers: workers}
	var h *repro.Hash
	setups := make([]float64, 0, r.setupReps())
	for i := 0; i < r.setupReps(); i++ {
		h = nil
		runtime.GC()
		sp := r.rec.start("repro.BuildHashFile", 0)
		built, err := repro.BuildHashFile(r.fx.ref, cfg)
		d := sp.end()
		if err != nil {
			return fmt.Errorf("building the reference hash: %w", err)
		}
		h = built
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups))
	r.mark("setup")

	raws, err := readRaw(r.fx.ref, maxRequestTrees)
	if err != nil {
		return err
	}
	answers := make([]float64, r.w.trees)
	for i := range answers {
		answers[i] = math.NaN() // not answered yet
	}
	var files, calls int // the next query file and the next request
	if !r.o.trace {
		// The two phases alternate in slots, so that each samples the
		// whole run rather than one stretch of a host whose speed drifts.
		var done []answered
		var lat []float64
		for i := 0; i < batchSlots; i++ {
			done = append(done, r.passes(h, answers, &files, r.phase(batchPassShare)/batchSlots)...)
			lat = append(lat, r.requests(h, raws, answers, &calls, r.phase(batchRequestShare)/batchSlots)...)
		}
		r.mark("query files and requests")
		// The reported percentiles are medians over windows of calls.
		window := max(minWindow, len(lat)/10)
		r.set("query_tps", throughput(done))
		r.set("p50_ms", windowed(lat, window, 50))
		r.set("p90_ms", windowed(lat, window, 90))
		r.set("peak_rss_mb", peakRSSMiB())
		r.info["samples"] = map[string]int{"setup_s": len(setups), "query_tps": len(done),
			"p50_ms": len(lat), "p90_ms": len(lat), "latency_window": window}
		r.info["latency_ms"] = latencyProfile(lat)
		perFile := make([]float64, len(done))
		for i, a := range done {
			perFile[i] = float64(a.trees) / a.secs
		}
		r.info["query_tps_per_file"] = perFile
	} else {
		// Traced run: the same query files with tracing off and then on;
		// the counters and GC are read over the traced half only.
		tracing(false)
		plain := r.passes(h, answers, &files, r.phase(0.5))
		before := readCounters(nil)
		tracing(true)
		traced := r.passes(h, answers, &files, r.phase(0.5))
		tracing(false)
		r.setPhaseMetrics(readCounters(nil).since(before))
		r.set("trace.overhead_pct", (throughput(plain)/throughput(traced)-1)*100)
		r.mark("query files")
		if err := r.batchLayers(); err != nil {
			return err
		}
		r.mark("layer probes")
	}
	h = nil
	err = r.checkDay(answers)
	r.mark("answer check")
	return err
}

// setupReps is how many times a run sets up; setup_s is the median.
// Serve setup takes milliseconds, so it is repeated more. A traced run
// does not report setup_s and sets up once.
func (r *run) setupReps() int {
	switch {
	case r.o.trace:
		return 1
	case r.o.smoke:
		return 2
	case r.w.serve:
		return 15
	default:
		return 3
	}
}

// answered is one query file's tree count and the wall time it took.
type answered struct {
	trees int
	secs  float64
}

// throughput is the trees answered per second over the files answered.
func throughput(as []answered) float64 {
	trees, secs := 0, 0.0
	for _, a := range as {
		trees += a.trees
		secs += a.secs
	}
	return float64(trees) / secs
}

// passes answers the query chunk files in order, round after round, from
// file *next on, for about budget seconds, and returns each file answered.
// The first call finishes the first round, so every query tree is
// answered. The first answer to each tree is kept in answers; every later
// one must repeat it bit for bit.
func (r *run) passes(h *repro.Hash, answers []float64, next *int, budget float64) []answered {
	var done []answered
	deadline := time.Now().Add(seconds(budget))
	runtime.GC()
	for ; *next < len(r.fx.chunks) || time.Now().Before(deadline); *next++ {
		c := *next % len(r.fx.chunks)
		first := c * r.w.chunk
		n := min(r.w.chunk, r.w.trees-first)
		sp := r.rec.start("repro.Hash.AverageRFFile", 0)
		res, err := h.AverageRFFile(r.fx.chunks[c])
		d := sp.end()
		r.attempted += n
		if err == nil && len(res) != n {
			err = fmt.Errorf("%d results for %d trees", len(res), n)
		}
		if err != nil {
			// The time counts, the trees do not.
			done = append(done, answered{0, d.Seconds()})
			r.failOps(n, "query file %d (trees %d-%d): %v", c, first, first+n-1, err)
			continue
		}
		done = append(done, answered{n, d.Seconds()})
		for j, x := range res {
			q := first + j
			if math.IsNaN(answers[q]) {
				answers[q] = x.AvgRF
			} else if math.Float64bits(x.AvgRF) != math.Float64bits(answers[q]) {
				r.fail("tree %d: %v, its first answer was %v", q, x.AvgRF, answers[q])
			}
		}
	}
	return done
}

// requests answers the workload's request size of query trees per call
// through Hash.AverageRFNewick, closed loop, from request *next on, for
// about budget seconds, and returns the per-call latencies in milliseconds. At n=100 a single-tree
// call was tried first: its fixed cost of waking a worker goroutine on an
// idle CPU made its median swing by 40% between runs on a shared virtual
// machine; eight trees, the serve request shape, amortize it.
func (r *run) requests(h *repro.Hash, raws []string, answers []float64, next *int, budget float64) []float64 {
	var lat []float64
	size := r.w.request
	n := max(1, len(raws)/size)
	deadline := time.Now().Add(seconds(budget))
	runtime.GC()
	for start := *next; *next == start || time.Now().Before(deadline); *next++ {
		first := *next % n * size
		trees := raws[first:min(first+size, len(raws))]
		t0 := time.Now()
		res, err := h.AverageRFNewick(trees)
		d := time.Since(t0)
		r.attempted += len(trees)
		if err == nil && len(res) != len(trees) {
			err = fmt.Errorf("%d results for %d trees", len(res), len(trees))
		}
		if err != nil {
			r.failOps(len(trees), "request of trees %d-%d: %v", first, first+len(trees)-1, err)
			lat = append(lat, math.Inf(1)) // a failed call misses any limit
			continue
		}
		lat = append(lat, d.Seconds()*1e3)
		for j, x := range res {
			if q := first + j; q < len(answers) && !math.IsNaN(answers[q]) && math.Float64bits(x.AvgRF) != math.Float64bits(answers[q]) {
				r.fail("tree %d in a request: %v, its query file gave %v", q, x.AvgRF, answers[q])
			}
		}
	}
	return lat
}

// checkDay checks a seeded sample of the batch answers against Day's
// O(n) algorithm: one exact tree-vs-tree comparison per reference tree,
// spread over the workers. Day's algorithm costs q·r comparisons, so the
// sample is small; each seed checks different trees.
func (r *run) checkDay(answers []float64) error {
	var answered []int
	for i, a := range answers {
		if !math.IsNaN(a) {
			answered = append(answered, i)
		}
	}
	if len(answered) == 0 {
		return nil // every query failed; already counted
	}
	k := 1
	if r.o.smoke {
		k = 2
	}
	rng := rand.New(rand.NewSource(r.o.seed))
	picks := map[int]*tree.Tree{}
	for len(picks) < min(k, len(answered)) {
		picks[answered[rng.Intn(len(answered))]] = nil
	}
	raws, err := readRaw(r.fx.ref, len(answers))
	if err != nil {
		return err
	}
	for i := range picks {
		if picks[i], err = newick.Parse(raws[i]); err != nil {
			return fmt.Errorf("day check: query %d: %w", i, err)
		}
	}
	jobs := make(chan string, workers)
	sums := make([]map[int]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range sums {
		sums[w] = map[int]int{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				ref, err := newick.Parse(s)
				for i, q := range picks {
					var d int
					if err == nil {
						d, err = day.RF(q, ref)
					}
					if err != nil {
						errs[w] = err
						continue
					}
					sums[w][i] += d
				}
			}
		}()
	}
	for _, s := range raws {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("day check: %w", err)
		}
	}
	checked := map[string]float64{}
	for i := range picks {
		total := 0
		for _, m := range sums {
			total += m[i]
		}
		want := float64(total) / float64(len(raws))
		if math.Float64bits(want) != math.Float64bits(answers[i]) {
			r.fail("tree %d: BFHRF says %v, Day's algorithm says %v", i, answers[i], want)
		}
		checked[fmt.Sprint(i)] = want
	}
	r.info["day_check"] = checked
	return nil
}

// readRaw returns up to limit Newick statements of a file, unparsed.
func readRaw(path string, limit int) ([]string, error) {
	f, err := collection.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	for len(out) < limit {
		s, err := f.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, strings.TrimSpace(s))
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
