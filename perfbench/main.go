// Command perfbench is the repository benchmark. It generates a
// workload's inputs from a seed, measures the library or its HTTP service
// on them, checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload batch-n100 --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: batch-n100, batch-n4096, serve-local or serve-distrib")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "root of the checkout the program is built from")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for fixtures, records and traces")
	gen := flag.Bool("gen", false, "only generate the workload's fixtures, then exit")
	summarize := flag.String("summarize", "", "summarize the run records in this directory as a baseline, then exit")
	flag.Parse()
	o.trace = trace == 1

	if *summarize != "" {
		if err := writeSummary(os.Stdout, *summarize); err != nil {
			fatal(err)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	if *gen {
		if _, err := ensureFixtures(o, w.scaled(o.smoke)); err != nil {
			fatal(err)
		}
		return
	}
	res, rec, err := execute(o)
	if err != nil {
		fatal(err)
	}
	for _, line := range []any{rec, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
}

// execute runs one workload and returns its result line and full record.
func execute(o options) (*resultJSON, map[string]any, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	w = w.scaled(o.smoke)
	fx, err := ensureFixtures(o, w)
	if err != nil {
		return nil, nil, err
	}
	r := newRun(o, w, fx)
	prov := newProvenance(o)
	r.info["provenance"] = prov
	r.info["host_check"] = checkHost(o, prov.Host)
	logf("%s seed %d: measuring for %gs (trace %v)", w.name, o.seed, o.seconds, o.trace)
	if w.serve {
		err = runServe(r)
	} else {
		err = runBatch(r)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res, err := r.result()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.info["peak_rss_mb_at_exit"] = peakRSSMiB()
	for _, f := range r.failures {
		logf("FAILED: %s", f)
	}
	rec := r.record(res)
	if err := r.save(rec); err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatal(err error) {
	logf("%v", err)
	os.Exit(1)
}

// writeSummary folds the run records in dir into one baseline document:
// per workload and run kind, each metric's median and quartiles over the
// seeds, with the provenance of the first record.
func writeSummary(out *os.File, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type rec struct {
		Workload   string          `json:"workload"`
		Seed       int64           `json:"seed"`
		Trace      bool            `json:"trace"`
		Result     resultJSON      `json:"result"`
		Provenance json.RawMessage `json:"provenance"`
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	seeds := map[string][]int64{}
	var prov json.RawMessage
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r rec
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if prov == nil {
			prov = r.Provenance
		}
		key := r.Workload + map[bool]string{false: "", true: " (traced)"}[r.Trace]
		if values[key] == nil {
			values[key] = map[string][]float64{}
		}
		seeds[key] = append(seeds[key], r.Seed)
		for name, m := range r.Result.Metrics {
			values[key][name] = append(values[key][name], m.Value)
			units[name] = m.Unit
		}
	}
	if len(values) == 0 {
		return fmt.Errorf("no run records in %s", dir)
	}
	runs := map[string]any{}
	for key, ms := range values {
		stats := map[string]any{}
		for name, vs := range ms {
			q1, q3 := quartiles(vs)
			med := median(vs)
			s := map[string]any{"median": med, "q1": q1, "q3": q3, "unit": units[name]}
			if med != 0 {
				s["spread"] = (q3 - q1) / med
			}
			stats[name] = s
		}
		runs[key] = map[string]any{"seeds": seeds[key], "metrics": stats}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"provenance": prov, "runs": runs})
}
