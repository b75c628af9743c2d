// Command bfhrf computes the average Robinson-Foulds distance of each
// query tree against a reference tree collection using the bipartition
// frequency hash — the tool the paper ships ("an easy to use installation
// and interface for calculating the average RF of query trees against a
// collection of reference trees").
//
// Usage:
//
//	bfhrf -ref references.nwk [-query queries.nwk] [flags]
//
// When -query is omitted the reference collection is compared against
// itself (Q is R), the setting of every experiment in the paper.
//
// Output: one line per query tree, "index<TAB>avgRF", plus a summary of
// the best (lowest average) query on stderr. With -o the lines go to a
// file, written atomically (temp file + fsync + rename) so a crash never
// leaves a half-written result.
//
// Long runs survive interruption: -checkpoint streams each result to a
// checksummed record file as it is computed, SIGINT/SIGTERM flush it
// before exit (a second signal kills the run at once), and -resume skips
// the already-recorded query trees after verifying the checkpoint
// matches the current reference collection.
//
// Hostile or damaged inputs are handled explicitly: -skip-bad-trees
// records a diagnostic per malformed tree and continues, while -max-taxa,
// -max-tree-bytes and -max-input-bytes turn pathological inputs into
// clean errors.
//
// The profiling flags (-cpuprofile, -memprofile, -trace) capture the run
// for `go tool pprof` / `go tool trace`, so hot paths can be inspected on
// real workloads. The tracing flags (-trace-out, -trace-sample,
// -slow-query) record per-request distributed traces — every kept trace
// is exported as JSONL on exit, and roots exceeding -slow-query emit a
// structured slow-query log line with their stage breakdown; validate or
// summarize the export with cmd/tracevet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/atomicio"
	"repro/internal/obs"
	"repro/internal/profhook"
)

type cliOptions struct {
	refPath, queryPath string
	cfg                repro.Config
	best               bool
	annotate           string
	outPath            string
	checkpointPath     string
	checkpointEvery    int
	resume             bool
	badTreeLog         string
	saveDir            string
	loadDir            string
	deltaAdd           string
	deltaRetire        string
	compactDir         string
}

func main() {
	var o cliOptions
	flag.StringVar(&o.refPath, "ref", "", "reference tree collection (Newick, required)")
	flag.StringVar(&o.queryPath, "query", "", "query tree collection (Newick); defaults to -ref (Q is R)")
	flag.IntVar(&o.cfg.Workers, "cpus", 0, "worker count (0 = all CPUs; clamped to the collection size)")
	flag.StringVar(&o.cfg.Variant, "variant", "plain", "RF variant: plain | normalized | weighted | info")
	flag.IntVar(&o.cfg.MinSplitSize, "min-split", 0, "drop bipartitions whose smaller side has fewer taxa")
	flag.IntVar(&o.cfg.MaxSplitSize, "max-split", 0, "drop bipartitions whose smaller side has more taxa (0 = no bound)")
	flag.BoolVar(&o.cfg.IntersectTaxa, "intersect-taxa", false, "variable-taxa mode: restrict all trees to their common taxa")
	flag.StringVar(&o.cfg.Backend, "backend", "auto", "hash backend: auto | openaddr | succinct (losslessly compressed keys, lower memory)")
	flag.IntVar(&o.cfg.HashShards, "hash-shards", 0, "hash shard count, a power of two (0 = default; more shards = finer snapshot deltas)")
	flag.StringVar(&o.saveDir, "save-bfh", "", "after building the hash from -ref, publish it as the next epoch of this snapshot directory")
	flag.StringVar(&o.loadDir, "load-bfh", "", "load the hash from this snapshot directory instead of building from -ref")
	flag.StringVar(&o.deltaAdd, "delta-add", "", "with -load-bfh: append this Newick file's trees and publish a delta epoch")
	flag.StringVar(&o.deltaRetire, "delta-retire", "", "with -load-bfh: remove this Newick file's trees and publish a delta epoch")
	flag.StringVar(&o.compactDir, "compact-bfh", "", "delete all epochs but the current one in this snapshot directory, then exit")
	queryCache := flag.Bool("query-cache", true, "answer exact topological repeats from the topology-fingerprint result cache (plain/normalized variants)")
	flag.IntVar(&o.cfg.QueryCacheEntries, "query-cache-size", 0, "query-cache capacity in entries (0 = default 65536)")
	flag.Int64Var(&o.cfg.QueryCacheBytes, "query-cache-bytes", 0, "query-cache memory cap in bytes (0 = default 8 MiB)")
	flag.BoolVar(&o.best, "best", false, "print only the query with the lowest average RF")
	flag.StringVar(&o.annotate, "annotate", "", "instead of distances, print this Newick tree annotated with reference support percentages")
	flag.StringVar(&o.outPath, "o", "", "write results to this file (atomic: temp+fsync+rename) instead of stdout")
	flag.StringVar(&o.checkpointPath, "checkpoint", "", "stream per-query results to this checksummed record file for crash-safe resume")
	flag.IntVar(&o.checkpointEvery, "checkpoint-interval", 0, "results between checkpoint fsyncs (0 = default)")
	flag.BoolVar(&o.resume, "resume", false, "resume from -checkpoint, skipping already-completed query trees (fingerprint-verified)")
	flag.BoolVar(&o.cfg.SkipBadTrees, "skip-bad-trees", false, "skip malformed or over-limit input trees, recording a diagnostic for each, instead of failing")
	flag.StringVar(&o.badTreeLog, "bad-tree-log", "", "with -skip-bad-trees, append per-tree diagnostics to this file (default stderr)")
	flag.IntVar(&o.cfg.MaxTaxa, "max-taxa", 0, "reject input trees with more than this many leaves (0 = unlimited)")
	flag.IntVar(&o.cfg.MaxTreeBytes, "max-tree-bytes", 0, "reject input trees serialized larger than this (0 = unlimited)")
	flag.Int64Var(&o.cfg.MaxInputBytes, "max-input-bytes", 0, "hard cap on decompressed bytes read per input file (0 = unlimited)")
	version := flag.Bool("version", false, "print version and VCS revision, then exit")
	profs := profhook.RegisterFlags(nil)
	logc := obs.RegisterLogFlags(nil)
	tracec := obs.RegisterTraceFlags(nil)
	flag.Parse()
	o.cfg.NoQueryCache = !*queryCache

	if *version {
		fmt.Println(obs.VersionLine("bfhrf"))
		return
	}
	if _, err := logc.Setup(nil); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		os.Exit(2)
	}
	flushTraces, err := tracec.Setup(false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		os.Exit(2)
	}

	stop, err := profs.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		os.Exit(1)
	}
	code := run(&o)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: stopping profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if err := flushTraces(); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: flushing traces: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o *cliOptions) int {
	if o.compactDir != "" {
		remaining, err := repro.CompactSnapshots(o.compactDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bfhrf: compacted %s: %d epoch(s) remain\n", o.compactDir, remaining)
		return 0
	}
	if o.loadDir != "" && o.refPath != "" {
		fmt.Fprintln(os.Stderr, "bfhrf: -load-bfh and -ref are mutually exclusive (the snapshot is the reference collection)")
		return 2
	}
	if (o.deltaAdd != "" || o.deltaRetire != "") && o.loadDir == "" {
		fmt.Fprintln(os.Stderr, "bfhrf: -delta-add/-delta-retire require -load-bfh")
		return 2
	}
	if o.refPath == "" && o.loadDir == "" {
		fmt.Fprintln(os.Stderr, "bfhrf: -ref is required")
		flag.Usage()
		return 2
	}
	if o.resume && o.checkpointPath == "" {
		fmt.Fprintln(os.Stderr, "bfhrf: -resume requires -checkpoint")
		return 2
	}
	q := o.queryPath
	if q == "" {
		q = o.refPath
	}

	// Per-tree diagnostics sink for lenient ingest.
	var diagSink *os.File
	if o.cfg.SkipBadTrees {
		diagSink = os.Stderr
		if o.badTreeLog != "" {
			f, err := os.OpenFile(o.badTreeLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
				return 1
			}
			defer f.Close()
			diagSink = f
		}
		o.cfg.OnBadTree = func(b repro.BadTree) {
			kind := "malformed"
			if b.Limit {
				kind = "over limit"
			}
			fmt.Fprintf(diagSink, "bfhrf: skipped %s: tree %d (line %d): %s: %s\n",
				b.Path, b.Tree, b.Line, kind, b.Reason)
		}
	}

	if o.annotate != "" {
		return annotateMode(o.annotate, o.refPath, o.cfg)
	}

	// The first SIGINT/SIGTERM cancels the run gracefully: the reference
	// build stops reading, in-flight queries drain and the checkpoint is
	// flushed before exit. It also restores the default disposition, so a
	// second signal kills a run stuck where the context does not reach (a
	// -save-bfh build, the -intersect-taxa scan) or in a stalled flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		stop()
		fmt.Fprintln(os.Stderr, "bfhrf: interrupted; flushing checkpoint…")
	})()

	if o.loadDir != "" || o.saveDir != "" {
		return snapshotMode(ctx, o)
	}

	results, err := repro.AverageRFFilesResumable(q, o.refPath, o.cfg, runOptions(ctx, o))
	return finish(o, results, err)
}

// runOptions builds the checkpoint/cancel wiring shared by the build-
// and-query path and the snapshot modes.
func runOptions(ctx context.Context, o *cliOptions) repro.RunOptions {
	return repro.RunOptions{
		CheckpointPath:     o.checkpointPath,
		CheckpointInterval: o.checkpointEvery,
		Resume:             o.resume,
		Context:            ctx,
		OnResume: func(done int) {
			fmt.Fprintf(os.Stderr, "bfhrf: resuming from %s: %d queries already done\n", o.checkpointPath, done)
		},
	}
}

// snapshotMode services -save-bfh and -load-bfh: the hash comes from a
// fresh build (save) or from the snapshot store (load, optionally with a
// delta publish), and any requested queries then run against it without
// a rebuild.
func snapshotMode(ctx context.Context, o *cliOptions) int {
	var h *repro.Hash
	var err error
	switch {
	case o.loadDir != "" && (o.deltaAdd != "" || o.deltaRetire != ""):
		var d repro.SnapshotDelta
		h, d, err = repro.DeltaHashSnapshot(o.loadDir, o.deltaAdd, o.deltaRetire, o.cfg)
		if err == nil {
			fmt.Fprintf(os.Stderr, "bfhrf: delta epoch %d over %d: %d part(s) rewritten, %d hard-linked\n",
				d.Epoch, d.Base, d.PartsWritten, d.PartsLinked)
		}
	case o.loadDir != "":
		h, err = repro.LoadHashSnapshot(o.loadDir, o.cfg)
	default:
		h, err = repro.BuildHashFile(o.refPath, o.cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	if o.saveDir != "" {
		epoch, err := h.SaveSnapshot(o.saveDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
			return 1
		}
		st := h.Stats()
		fmt.Fprintf(os.Stderr, "bfhrf: saved epoch %d to %s (%d trees, %d unique bipartitions)\n",
			epoch, o.saveDir, st.NumTrees, st.UniqueBipartitions)
	}
	q := o.queryPath
	if q == "" && o.refPath != "" {
		q = o.refPath // -save-bfh keeps the Q-is-R default
	}
	if q == "" {
		// A pure delta or compaction run has nothing to query; a plain
		// -load-bfh with no work at all is a usage error.
		if o.deltaAdd == "" && o.deltaRetire == "" {
			fmt.Fprintln(os.Stderr, "bfhrf: -load-bfh needs -query (or -delta-add/-delta-retire)")
			return 2
		}
		return 0
	}
	results, err := h.AverageRFFileResumable(q, runOptions(ctx, o))
	return finish(o, results, err)
}

// finish reports a completed (or interrupted) query run.
func finish(o *cliOptions, results []repro.Result, err error) int {
	if errors.Is(err, context.Canceled) {
		if o.checkpointPath != "" {
			fmt.Fprintf(os.Stderr, "bfhrf: interrupted after %d queries; checkpoint %s is valid — rerun with -resume to continue\n",
				len(results), o.checkpointPath)
		} else {
			fmt.Fprintf(os.Stderr, "bfhrf: interrupted after %d queries (no -checkpoint; progress not saved)\n", len(results))
		}
		return 130
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "bfhrf: no query trees")
		return 1
	}
	if o.best {
		b, err := repro.BestResult(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
			return 1
		}
		return emit(o.outPath, fmt.Sprintf("%d\t%g\n", b.Index, b.AvgRF))
	}
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "%d\t%g\n", r.Index, r.AvgRF)
	}
	if code := emit(o.outPath, sb.String()); code != 0 {
		return code
	}
	b, _ := repro.BestResult(results)
	fmt.Fprintf(os.Stderr, "bfhrf: %d queries; best is tree %d with average RF %g\n",
		len(results), b.Index, b.AvgRF)
	return 0
}

// emit writes the result block to stdout, or atomically to a file so an
// interrupted write can never be mistaken for a complete result set.
func emit(outPath, content string) int {
	if outPath == "" {
		fmt.Print(content)
		return 0
	}
	if err := atomicio.WriteFile(outPath, []byte(content)); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	return 0
}

// annotateMode prints the target tree with BFH support percentages.
func annotateMode(targetPath, refPath string, cfg repro.Config) int {
	data, err := os.ReadFile(targetPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	h, err := repro.BuildHashFile(refPath, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	out, err := h.AnnotateSupport(string(data), 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrf: %v\n", err)
		return 1
	}
	fmt.Println(out)
	return 0
}
