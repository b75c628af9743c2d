// Command rfbench regenerates every table and figure of the paper's
// evaluation section on simulated stand-ins for its datasets, printing the
// same rows the paper reports (runtime in minutes, peak memory in MB, per
// engine and data point) plus empirical complexity fits and the §VI.C
// statistics.
//
// It is also the perf-observability tool: `-json` runs the benchmark
// sweep over the experiment index and emits machine-readable records
// (the committed BENCH_*.json trajectory), and `-compare` gates a run
// against a committed baseline, exiting non-zero on regression.
//
// Usage:
//
//	rfbench                          # full suite at the default scale (minutes)
//	rfbench -exp avian               # only Fig. 1
//	rfbench -exp headline            # the abstract's speedup/memory ratios
//	rfbench -scale 0.1 -csv out/     # 10% of the paper's sizes, CSVs saved
//	rfbench -scale 1                 # the paper's full sizes (hours, tens of GB)
//
//	rfbench -json BENCH_0002.json            # measure the perf sweep, write records
//	rfbench -compare BENCH_0001.json         # measure and gate against a baseline
//	rfbench -compare old.json -with new.json # gate one recorded run against another
//
// Experiments: datasets (Table II), avian (Fig. 1), insect (Table III),
// vartaxa (Table IV), vartrees (Table V / Fig. 2), complexity (Table I +
// §VI.C), accuracy (§III.C), all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfjson"
	"repro/internal/profhook"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all | datasets | avian | insect | vartaxa | vartrees | complexity | accuracy | headline | ablation | distrib")
		scale     = flag.Float64("scale", 0.02, "fraction of the paper's dataset sizes (1 = full scale)")
		engines   = flag.String("engines", "", "comma-separated engine subset (DS,DSMP8,DSMP16,HashRF,BFHRF8,BFHRF16,BFHRF-OA,BFHRF-MAP,BFHRF-SUCC)")
		qcap      = flag.Int("query-cap", 64, "max queries executed by DS/DSMP before extrapolating (paper's estimation protocol)")
		membw     = flag.Int("mem-budget", 2048, "HashRF matrix budget in MB (simulates the paper's OOM kills)")
		csvDir    = flag.String("csv", "", "directory to save per-table CSV files")
		workDir   = flag.String("work", "", "directory for materialized dataset files (default: temp)")
		jsonOut   = flag.String("json", "", "perf mode: run the benchmark sweep and write perfjson records to this file")
		compare   = flag.String("compare", "", "perf mode: gate against this baseline perfjson file (exit 3 on regression)")
		with      = flag.String("with", "", "with -compare: gate this already-recorded perfjson file instead of measuring")
		threshold = flag.Float64("threshold", perfjson.DefaultThreshold, "relative slowdown that counts as a regression")
		reps      = flag.Int("reps", 5, "perf mode: repetitions per workload/engine (median and min are recorded)")
		version   = flag.Bool("version", false, "print version and VCS revision, then exit")
	)
	profs := profhook.RegisterFlags(nil)
	// -v doubles as the historical "verbose progress" switch (bare -v) and
	// the shared log verbosity (-v=2 for trace).
	logc := obs.RegisterLogFlags(nil)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("rfbench"))
		return
	}
	if _, err := logc.Setup(nil); err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
		os.Exit(2)
	}

	stop, err := profs.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
		os.Exit(1)
	}
	code := run(*exp, *scale, *engines, *qcap, *membw, *csvDir, *workDir, logc.V >= 1,
		*jsonOut, *compare, *with, *threshold, *reps)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: stopping profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(exp string, scale float64, engines string, qcap, membw int, csvDir, workDir string, verbose bool,
	jsonOut, compare, with string, threshold float64, reps int) int {
	cfg := experiments.Config{
		Scale:       scale,
		QueryCap:    qcap,
		MemBudgetMB: membw,
		WorkDir:     workDir,
		Verbose:     verbose,
	}
	if engines != "" {
		for _, e := range strings.Split(engines, ",") {
			cfg.Engines = append(cfg.Engines, experiments.Engine(strings.TrimSpace(e)))
		}
	}

	if jsonOut != "" || compare != "" || with != "" {
		return runPerf(cfg, jsonOut, compare, with, threshold, reps)
	}

	type runner struct {
		name string
		run  func() *experiments.Report
	}
	all := []runner{
		{"datasets", cfg.Datasets},
		{"accuracy", cfg.Accuracy},
		{"avian", cfg.Avian},
		{"insect", cfg.Insect},
		{"vartaxa", cfg.VarTaxa},
		{"vartrees", cfg.VarTrees},
		{"complexity", cfg.Complexity},
		{"headline", cfg.Headline},
		{"ablation", cfg.Ablation},
		{"distrib", cfg.Distrib},
	}
	var selected []runner
	if exp == "all" {
		selected = all
	} else {
		for _, r := range all {
			if r.name == exp {
				selected = append(selected, r)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "rfbench: unknown experiment %q\n", exp)
			return 2
		}
	}

	for _, r := range selected {
		rep := r.run()
		if err := rep.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
			return 1
		}
		if csvDir != "" {
			if err := rep.SaveCSV(csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "rfbench: saving CSV: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// runPerf is the perf-observability mode: measure (or load) a benchmark
// suite, optionally persist it, optionally gate it against a baseline.
func runPerf(cfg experiments.Config, jsonOut, compare, with string, threshold float64, reps int) int {
	var cur *perfjson.Suite
	var err error
	if with != "" {
		if compare == "" {
			fmt.Fprintln(os.Stderr, "rfbench: -with requires -compare")
			return 2
		}
		if cur, err = perfjson.ReadFile(with); err != nil {
			fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
			return 1
		}
	} else {
		if cur, err = cfg.PerfSweep(reps); err != nil {
			fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
			return 1
		}
		cur.Tool = "rfbench"
		cur.GitCommit = perfjson.GitCommit(".")
		cur.Host = perfjson.CurrentHost()
		cur.Timestamp = time.Now().UTC().Format(time.RFC3339)
	}

	if jsonOut != "" {
		if err := perfjson.WriteFile(jsonOut, cur); err != nil {
			fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "rfbench: wrote %d records to %s\n", len(cur.Records), jsonOut)
	}

	if compare == "" {
		return 0
	}
	base, err := perfjson.ReadFile(compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
		return 1
	}
	cmp, err := perfjson.Compare(base, cur, perfjson.Options{Threshold: threshold})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
		return 1
	}
	if err := cmp.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rfbench: %v\n", err)
		return 1
	}
	if !cmp.OK() {
		return 3
	}
	return 0
}
