// Command bfhrfd runs BFHRF in multi-node mode — the paper's §VII.B
// extension. One process per worker node serves a shard of the reference
// collection; a coordinator process distributes the references, fans
// queries out, and folds the exact average-RF results.
//
// Worker (one per node):
//
//	bfhrfd -serve :7001 -admin :9090
//
// Coordinator:
//
//	bfhrfd -workers host1:7001,host2:7001 -ref refs.nwk -query queries.nwk
//
// Output matches cmd/bfhrf: one "index<TAB>avgRF" line per query on
// stdout. Fault-tolerance annotations (coverage, failovers, lost workers)
// go to stderr so pipelines comparing the two commands stay byte-stable.
//
// The coordinator tolerates worker failure. Every RPC carries the
// -rpc-timeout deadline and transient failures (dial errors, timeouts,
// severed connections) are retried up to -retries times with exponential
// backoff. A worker that stays unreachable is declared dead: by default
// its shard is re-dispatched to a healthy worker from the post-load
// checkpoint and the query still returns the exact full result; with
// -partial-results the query instead answers from the shards that
// responded and reports the achieved coverage. -health-interval starts a
// background probe loop that detects dead workers between queries
// (bfhrf_worker_state: 0 healthy, 1 suspect, 2 dead). See ARCHITECTURE.md
// for the failure model and "Operating bfhrfd" in README.md for the
// recovery runbook.
//
// The -admin listener serves the runtime telemetry: /metrics (Prometheus
// text format, including Go runtime health polled by the runtime
// collector), /healthz (worker: shard loaded + tree count; coordinator:
// alive/dead worker counts), /debug/traces (the last-K kept distributed
// traces as JSON), and /debug/pprof (whose mutex and block profiles
// activate via -mutex-profile-fraction / -block-profile-rate). Structured
// logs go to stderr (-log-format text|json, -v for debug detail, -v=2
// for trace).
//
// Distributed tracing is configured by -trace-out (JSONL export),
// -trace-sample (head-sampling probability) and -slow-query (tail-based
// always-keep plus a structured slow-query log line); trace context
// propagates through the query RPCs, so a coordinator trace includes the
// worker-side spans of every fan-out. See "Diagnosing slow queries" in
// README.md.
//
// The profiling flags (-cpuprofile, -memprofile, -trace) capture the run
// for `go tool pprof` / `go tool trace`. A worker profiles until it is
// terminated (SIGINT/SIGTERM), at which point the profiles are flushed
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/profhook"
	"repro/internal/serve"
)

func main() {
	var (
		serve     = flag.String("serve", "", "run as a worker, listening on this address (e.g. :7001)")
		workers   = flag.String("workers", "", "coordinator mode: comma-separated worker addresses")
		refPath   = flag.String("ref", "", "reference tree collection (coordinator mode)")
		queryPath = flag.String("query", "", "query tree collection; defaults to -ref (coordinator mode)")
		saveBfh   = flag.String("save-bfh", "", "after loading -ref, persist the cluster's shards as a worker-layout snapshot epoch in this directory (coordinator mode)")
		loadBfh   = flag.String("load-bfh", "", "restore the cluster from the snapshot directory's current epoch instead of loading -ref (coordinator mode)")
		chunk     = flag.Int("chunk", 512, "reference trees per load RPC (coordinator mode)")
		batch     = flag.Int("batch", 256, "query trees per query RPC (coordinator mode)")
		admin     = flag.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090)")
		version   = flag.Bool("version", false, "print version and VCS revision, then exit")

		rpcTimeout = flag.Duration("rpc-timeout", 30*time.Second,
			"per-RPC deadline; 0 disables (coordinator mode)")
		retries = flag.Int("retries", 2,
			"retries per RPC on transient failures, with exponential backoff (coordinator mode)")
		partialResults = flag.Bool("partial-results", false,
			"answer from surviving shards instead of failing over a dead worker's shard; coverage is reported on stderr and in bfhrf_query_shard_coverage (coordinator mode)")
		queryCache = flag.Bool("query-cache", true,
			"answer exact topological repeats from the coordinator's topology-fingerprint cache and dedupe repeats within a batch (coordinator mode)")
		queryCacheSize = flag.Int("query-cache-size", 0,
			"query-cache capacity in entries; 0 = default 65536 (coordinator mode)")
		queryCacheBytes = flag.Int64("query-cache-bytes", 0,
			"query-cache memory cap in bytes; 0 = default 8 MiB (coordinator mode)")
		healthInterval = flag.Duration("health-interval", 0,
			"probe worker health at this period; 0 disables the loop (coordinator mode)")

		outPath = flag.String("o", "",
			"write results to this file (atomic: temp+fsync+rename) instead of stdout (coordinator mode)")
		checkpointPath = flag.String("checkpoint", "",
			"stream per-query results to this checksummed record file for crash-safe resume (coordinator mode)")
		checkpointEvery = flag.Int("checkpoint-interval", 0,
			"results between checkpoint fsyncs; 0 = default (coordinator mode)")
		resume = flag.Bool("resume", false,
			"resume from -checkpoint, skipping already-completed query trees (fingerprint-verified; coordinator mode)")
		skipBadTrees = flag.Bool("skip-bad-trees", false,
			"skip malformed or over-limit input trees, recording a diagnostic for each, instead of failing (coordinator mode)")
		maxTaxa = flag.Int("max-taxa", 0,
			"reject input trees with more than this many leaves; 0 = unlimited (coordinator mode)")
		maxTreeBytes = flag.Int("max-tree-bytes", 0,
			"reject input trees serialized larger than this; 0 = unlimited (coordinator mode)")
		maxInputBytes = flag.Int64("max-input-bytes", 0,
			"hard cap on decompressed bytes read per input file; 0 = unlimited (coordinator mode)")

		mutexFraction = flag.Int("mutex-profile-fraction", 0,
			"sample 1/n of mutex contention events for /debug/pprof/mutex; 0 disables (both modes)")
		blockRate = flag.Int("block-profile-rate", 0,
			"sample blocking events lasting at least this many nanoseconds for /debug/pprof/block; 0 disables (both modes)")

		serveHTTP = flag.Bool("serve-http", false,
			"run as a long-lived query service: answer POST /v1/query on the -admin listener instead of running one batch (serve mode)")
		collections = flag.String("collections", "",
			"JSON manifest of named snapshot collections to serve (serve mode)")
		collectionsRoot = flag.String("collections-root", "",
			"directory under which /v1/collections registrations without an explicit dir resolve, as <root>/<name> (serve mode)")
		collectionName = flag.String("collection-name", "default",
			"catalog name for the worker-backed collection loaded via -ref/-load-bfh (serve mode with -workers)")
		maxInflight = flag.Int("max-inflight", 0,
			"queries executing concurrently; 0 = GOMAXPROCS (serve mode)")
		queueDepth = flag.Int("queue-depth", 0,
			"admitted requests that may wait for an execution slot; beyond it requests are shed with 503; 0 = default 64 (serve mode)")
		tenantRate = flag.Float64("tenant-rate", 0,
			"per-tenant sustained requests/second, keyed on the X-Tenant header; over-rate requests are shed with 429; 0 disables (serve mode)")
		tenantBurst = flag.Float64("tenant-burst", 0,
			"per-tenant token-bucket burst capacity; 0 = 2x -tenant-rate (serve mode)")
		requestMaxBytes = flag.Int64("request-max-bytes", 0,
			"per-request body cap; 0 = default 1 MiB (serve mode)")
		queryDeadline = flag.Duration("query-deadline", 0,
			"end-to-end deadline per admitted request, propagated into worker RPCs; 0 = default 30s (serve mode)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"on SIGTERM, wait this long for in-flight queries before exiting (serve mode)")
	)
	profs := profhook.RegisterFlags(nil)
	logc := obs.RegisterLogFlags(nil)
	tracec := obs.RegisterTraceFlags(nil)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionLine("bfhrfd"))
		return
	}
	if _, err := logc.Setup(nil); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrfd: %v\n", err)
		os.Exit(2)
	}
	obs.RegisterBuildInfo(nil)
	// With an admin listener the ring must record regardless of flags, so
	// /debug/traces has something to show.
	flushTraces, err := tracec.Setup(*admin != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrfd: %v\n", err)
		os.Exit(2)
	}
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if code, msg := validateFlags(*serve, *workers, *serveHTTP, *admin, setFlags()); code != 0 {
		fmt.Fprintf(os.Stderr, "bfhrfd: %s\n", msg)
		flag.Usage()
		os.Exit(code)
	}

	stop, err := profs.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfhrfd: %v\n", err)
		os.Exit(1)
	}

	svcCfg := serveConfig{
		manifest:        *collections,
		root:            *collectionsRoot,
		collectionName:  *collectionName,
		maxInflight:     *maxInflight,
		queueDepth:      *queueDepth,
		tenantRate:      *tenantRate,
		tenantBurst:     *tenantBurst,
		requestMaxBytes: *requestMaxBytes,
		queryDeadline:   *queryDeadline,
		drainTimeout:    *drainTimeout,
		maxTaxa:         *maxTaxa,
		maxTreeBytes:    *maxTreeBytes,
	}

	var code int
	switch {
	case *serve != "":
		code = runWorker(*serve, *admin)
	case *serveHTTP && *workers == "":
		code = runServeStandalone(*admin, svcCfg)
	default:
		code = runCoordinator(coordConfig{
			workers:         *workers,
			refPath:         *refPath,
			queryPath:       *queryPath,
			adminAddr:       *admin,
			chunk:           *chunk,
			batch:           *batch,
			rpcTimeout:      *rpcTimeout,
			retries:         *retries,
			partialResults:  *partialResults,
			queryCache:      *queryCache,
			queryCacheSize:  *queryCacheSize,
			queryCacheBytes: *queryCacheBytes,
			healthInterval:  *healthInterval,
			outPath:         *outPath,
			checkpointPath:  *checkpointPath,
			checkpointEvery: *checkpointEvery,
			resume:          *resume,
			skipBadTrees:    *skipBadTrees,
			maxTaxa:         *maxTaxa,
			maxTreeBytes:    *maxTreeBytes,
			maxInputBytes:   *maxInputBytes,
			saveDir:         *saveBfh,
			loadDir:         *loadBfh,
			serveHTTP:       *serveHTTP,
			serveCfg:        svcCfg,
		})
	}
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrfd: stopping profiles: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if err := flushTraces(); err != nil {
		fmt.Fprintf(os.Stderr, "bfhrfd: flushing traces: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// coordinatorOnly lists the flags that configure the coordinator and are
// meaningless on a worker (a worker receives its shard and its queries
// over RPC). Worker mode rejects them instead of silently ignoring them.
var coordinatorOnly = []string{
	"ref", "query", "chunk", "batch",
	"rpc-timeout", "retries", "partial-results", "health-interval",
	"query-cache", "query-cache-size", "query-cache-bytes",
	"o", "checkpoint", "checkpoint-interval", "resume",
	"skip-bad-trees", "max-taxa", "max-tree-bytes", "max-input-bytes",
	"save-bfh", "load-bfh",
}

// serveOnly lists the flags that configure the query service; setting one
// outside -serve-http mode is an error, not a silent no-op.
var serveOnly = []string{
	"collections", "collections-root", "collection-name",
	"max-inflight", "queue-depth", "tenant-rate", "tenant-burst",
	"request-max-bytes", "query-deadline", "drain-timeout",
}

// batchOnly lists the coordinator flags that only make sense for a
// one-shot batch run; in serve mode queries arrive over HTTP, so a batch
// query file or checkpoint is a configuration error.
var batchOnly = []string{"query", "o", "checkpoint", "checkpoint-interval", "resume"}

// workerShardOnly lists the coordinator flags that additionally need a
// worker cluster; standalone serve mode (no -workers) rejects them.
var workerShardOnly = []string{
	"ref", "chunk", "batch",
	"rpc-timeout", "retries", "partial-results", "health-interval",
	"query-cache", "query-cache-size", "query-cache-bytes",
	"skip-bad-trees", "max-input-bytes", "save-bfh", "load-bfh",
}

// setFlags reports which flags were explicitly set on the command line.
func setFlags() map[string]bool {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// validateFlags enforces the mode split. -serve selects worker mode,
// -workers coordinator mode (batch, or a service with -serve-http), and
// -serve-http alone a standalone service over local snapshots; flags
// belonging to another mode are errors rather than silently ignored.
func validateFlags(serve, workers string, serveHTTP bool, admin string, set map[string]bool) (int, string) {
	switch {
	case serve == "" && workers == "" && !serveHTTP:
		return 2, "need -serve (worker), -workers (coordinator) or -serve-http (query service)"
	case serve != "" && workers != "":
		return 2, "-serve (worker mode) and -workers (coordinator mode) are mutually exclusive"
	case serve != "" && serveHTTP:
		return 2, "-serve (worker mode) and -serve-http (query service) are mutually exclusive"
	}
	if serve != "" {
		for _, name := range append(append([]string{}, coordinatorOnly...), serveOnly...) {
			if set[name] {
				return 2, fmt.Sprintf("-%s is a coordinator flag; a worker receives its shard over RPC", name)
			}
		}
		return 0, ""
	}
	if !serveHTTP {
		for _, name := range serveOnly {
			if set[name] {
				return 2, fmt.Sprintf("-%s only applies with -serve-http", name)
			}
		}
		return 0, ""
	}
	// Serve mode: the query API rides the admin listener.
	if admin == "" {
		return 2, "-serve-http needs -admin (the query API is served on the admin listener)"
	}
	for _, name := range batchOnly {
		if set[name] {
			return 2, fmt.Sprintf("-%s is a batch flag; in -serve-http mode queries arrive over HTTP", name)
		}
	}
	if workers == "" {
		for _, name := range workerShardOnly {
			if set[name] {
				return 2, fmt.Sprintf("-%s needs -workers; standalone -serve-http serves local snapshot collections", name)
			}
		}
		if !set["collections"] && !set["collections-root"] {
			return 2, "standalone -serve-http needs -collections (manifest) or -collections-root"
		}
	}
	return 0, ""
}

func fail(err error) int {
	slog.Error(err.Error())
	fmt.Fprintf(os.Stderr, "bfhrfd: %v\n", err)
	return 1
}

// runWorker serves until SIGINT/SIGTERM so that profiles started in main
// are flushed on the way out (os.Exit inside a signal-less select would
// discard them). The RPC listener and the admin server are shut down
// before returning.
func runWorker(addr, adminAddr string) int {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fail(err)
	}
	w := &distrib.Worker{}
	go distrib.ServeWorker(l, w) //nolint:errcheck — terminates when l closes
	// Catch signals before announcing readiness: a supervisor may signal
	// as soon as it reads the line below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "bfhrfd: worker serving on %s\n", l.Addr())
	slog.Info("worker serving", "addr", l.Addr().String())

	var adm *adminServer
	if adminAddr != "" {
		adm, err = startAdmin(adminAddr, workerHealthz(w), nil)
		if err != nil {
			l.Close()
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: admin serving on %s\n", adm.Addr())
		slog.Info("admin serving", "addr", adm.Addr())
	}

	s := <-sig
	fmt.Fprintf(os.Stderr, "bfhrfd: %s, shutting down\n", s)
	slog.Info("shutting down", "signal", s.String())
	l.Close()
	code := 0
	if adm != nil {
		if err := adm.Shutdown(); err != nil {
			code = fail(fmt.Errorf("admin shutdown: %w", err))
		}
	}
	return code
}

// coordConfig bundles the coordinator-mode flag values.
type coordConfig struct {
	workers, refPath, queryPath, adminAddr string
	chunk, batch                           int
	rpcTimeout                             time.Duration
	retries                                int
	partialResults                         bool
	queryCache                             bool
	queryCacheSize                         int
	queryCacheBytes                        int64
	healthInterval                         time.Duration
	outPath                                string
	checkpointPath                         string
	checkpointEvery                        int
	resume                                 bool
	skipBadTrees                           bool
	maxTaxa, maxTreeBytes                  int
	maxInputBytes                          int64
	saveDir, loadDir                       string
	serveHTTP                              bool
	serveCfg                               serveConfig
}

// ingest translates the hardening flags to collection options; skipped
// trees are reported on stderr, mirroring cmd/bfhrf.
func (cfg coordConfig) ingest() collection.Options {
	opts := collection.Options{
		Lenient:       cfg.skipBadTrees,
		Limits:        newick.Limits{MaxTaxa: cfg.maxTaxa, MaxTreeBytes: cfg.maxTreeBytes},
		MaxInputBytes: cfg.maxInputBytes,
	}
	if cfg.skipBadTrees {
		opts.OnDiag = func(d collection.Diag) {
			kind := "malformed"
			if d.Limit {
				kind = "over limit"
			}
			fmt.Fprintf(os.Stderr, "bfhrfd: skipped %s: tree %d (line %d): %s: %s\n",
				d.Path, d.Tree, d.Line, kind, d.Reason)
		}
	}
	return opts
}

// resultKey canonically renders every flag that affects result values, for
// the checkpoint header. The topology (workers, chunk, batch) is absent on
// purpose: sharding never changes the answers, so a run may resume on a
// different cluster shape.
func (cfg coordConfig) resultKey() string {
	return fmt.Sprintf("distrib skipbad=%t maxtaxa=%d maxtreebytes=%d maxinput=%d",
		cfg.skipBadTrees, cfg.maxTaxa, cfg.maxTreeBytes, cfg.maxInputBytes)
}

func runCoordinator(cfg coordConfig) int {
	if cfg.loadDir != "" && cfg.refPath != "" {
		fmt.Fprintln(os.Stderr, "bfhrfd: -load-bfh and -ref are mutually exclusive (the snapshot is the reference collection)")
		return 2
	}
	if cfg.refPath == "" && cfg.loadDir == "" {
		fmt.Fprintln(os.Stderr, "bfhrfd: -ref is required in coordinator mode")
		flag.Usage()
		return 2
	}
	if cfg.loadDir != "" && cfg.queryPath == "" && !cfg.serveHTTP {
		fmt.Fprintln(os.Stderr, "bfhrfd: -load-bfh needs -query (no reference file to default to)")
		return 2
	}
	if cfg.resume && cfg.checkpointPath == "" {
		fmt.Fprintln(os.Stderr, "bfhrfd: -resume requires -checkpoint")
		return 2
	}
	if cfg.queryPath == "" {
		cfg.queryPath = cfg.refPath
	}
	var addrs []string
	for _, a := range strings.Split(cfg.workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	// Signal handling is phased. During startup (dial, load) there is
	// nothing worth draining, so SIGINT/SIGTERM cancels the context
	// outright, aborting in-flight RPCs and backoff sleeps instead of
	// leaving the run hanging on a dead cluster. Once the query phase
	// begins, the first signal drains — /healthz flips to "draining",
	// in-flight work finishes (batch: the current batches fold and the
	// checkpoint flushes; serve: admission stops and admitted queries
	// complete) — and only a second signal hard-cancels.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	soft := make(chan struct{})
	var draining atomic.Bool
	var queryPhase atomic.Bool
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		softClosed := false
		for s := range sig {
			if !queryPhase.Load() {
				fmt.Fprintf(os.Stderr, "bfhrfd: %s during startup, aborting\n", s)
				cancel()
				return
			}
			if !softClosed {
				softClosed = true
				draining.Store(true)
				fmt.Fprintf(os.Stderr, "bfhrfd: %s: draining — finishing in-flight work (signal again to abort)\n", s)
				slog.Info("draining", "signal", s.String())
				close(soft)
				continue
			}
			fmt.Fprintf(os.Stderr, "bfhrfd: %s again: aborting\n", s)
			cancel()
			return
		}
	}()

	retry := distrib.RetryPolicy{MaxAttempts: cfg.retries + 1}
	// Workers may still be starting when the coordinator launches; ride
	// that out with the same backoff the per-RPC path uses.
	var coord *distrib.Coordinator
	err := distrib.Do(ctx, retry,
		func(r int, err error) { slog.Warn("retrying worker dial", "retry", r+1, "error", err) },
		func() error {
			var err error
			coord, err = distrib.Dial(addrs)
			return err
		})
	if err != nil {
		return fail(err)
	}
	defer coord.Close()
	coord.ChunkSize = cfg.chunk
	coord.BatchSize = cfg.batch
	coord.RPCTimeout = cfg.rpcTimeout
	coord.Retry = retry
	coord.PartialResults = cfg.partialResults
	if cfg.queryCache {
		coord.Cache = core.NewQueryCache(cfg.queryCacheSize, cfg.queryCacheBytes)
	}

	// In serve mode the /v1 routes must exist before the listener opens, so
	// the catalog and service are built first and the worker-backed
	// collection is registered after Load completes (queries for it 404
	// until then; /healthz already reports readiness honestly).
	var svc *serve.Service
	var cat *serve.Catalog
	healthz := coordinatorHealthz(coord)
	var mount func(*http.ServeMux)
	if cfg.serveHTTP {
		cat = serve.NewCatalog(cfg.serveCfg.root, 0)
		defer cat.Close()
		svc = cfg.serveCfg.service(cat)
		healthz = svc.WrapHealthz(healthz)
		mount = svc.Register
	} else {
		healthz = drainingHealthz(&draining, healthz)
	}
	var adm *adminServer
	if cfg.adminAddr != "" {
		adm, err = startAdmin(cfg.adminAddr, healthz, mount)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: admin serving on %s\n", adm.Addr())
		slog.Info("admin serving", "addr", adm.Addr())
		defer adm.Shutdown() //nolint:errcheck — best-effort drain on exit
	}

	if cfg.loadDir != "" {
		if err := coord.LoadSnapshotContext(ctx, cfg.loadDir); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: restored snapshot %s across %d workers\n", cfg.loadDir, coord.NumWorkers())
	} else {
		refs, err := collection.OpenFileOpts(cfg.refPath, cfg.ingest())
		if err != nil {
			return fail(err)
		}
		defer refs.Close()
		_, span := obs.StartSpan(nil, "coord.scan_taxa")
		ts, err := collection.ScanTaxa(refs)
		span.End()
		if err != nil {
			return fail(err)
		}
		if err := coord.LoadContext(ctx, refs, ts, false); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: loaded references across %d workers\n", coord.NumWorkers())
	}
	if cfg.saveDir != "" {
		epoch, err := coord.SaveSnapshotsContext(ctx, cfg.saveDir)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: saved snapshot epoch %d to %s\n", epoch, cfg.saveDir)
	}

	if cfg.healthInterval > 0 {
		stopHealth := coord.StartHealthLoop(cfg.healthInterval)
		defer stopHealth()
		slog.Info("health loop started", "interval", cfg.healthInterval.String())
	}

	if cfg.serveHTTP {
		if err := cat.Register(cfg.serveCfg.collectionName, &serve.Distributed{Coord: coord}); err != nil {
			return fail(err)
		}
		if cfg.serveCfg.manifest != "" {
			if err := cat.LoadManifest(cfg.serveCfg.manifest); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "bfhrfd: serving queries for collection %q on %s\n",
			cfg.serveCfg.collectionName, adm.Addr())
		slog.Info("query service ready", "collection", cfg.serveCfg.collectionName)
		queryPhase.Store(true)
		return serveWait(ctx, svc, soft, cfg.serveCfg.drainTimeout)
	}

	queries, err := collection.OpenFileOpts(cfg.queryPath, cfg.ingest())
	if err != nil {
		return fail(err)
	}
	defer queries.Close()

	// Checkpoint wiring: each folded result streams into the record file,
	// and a resumed run skips the queries already on disk after verifying
	// the checkpoint was written against these references and flags.
	// Cancellation is the soft channel: the first signal stops the run at
	// a batch boundary with in-flight batches folded and the checkpoint
	// flushed; a second signal cancels ctx, aborting in-flight RPCs.
	queryPhase.Store(true)
	ck := checkpoint.Run{
		Path:     cfg.checkpointPath,
		Resume:   cfg.resume,
		Interval: cfg.checkpointEvery,
		Header:   checkpoint.Header{Fingerprint: coord.Fingerprint(), Config: cfg.resultKey()},
		OnResume: func(done int) {
			fmt.Fprintf(os.Stderr, "bfhrfd: resuming from %s: %d queries already done\n", cfg.checkpointPath, done)
		},
	}
	var out *distrib.Outcome
	results, err := ck.Query(func(skip func(int) bool, record func(core.Result)) ([]core.Result, error) {
		var err error
		out, err = coord.AverageRFOpts(ctx, queries, distrib.QueryRunOptions{Skip: skip, OnResult: record, Cancel: soft})
		if out == nil {
			return nil, err
		}
		return out.Results, err
	})
	// SIGINT/SIGTERM surface either as ErrCanceled (caught at a batch
	// boundary) or as a context error from an aborted in-flight RPC; both
	// leave a valid, flushed checkpoint behind.
	if errors.Is(err, distrib.ErrCanceled) || errors.Is(err, context.Canceled) {
		if cfg.checkpointPath != "" {
			fmt.Fprintf(os.Stderr, "bfhrfd: interrupted after %d queries; checkpoint %s is valid — rerun with -resume to continue\n",
				len(results), cfg.checkpointPath)
		} else {
			fmt.Fprintf(os.Stderr, "bfhrfd: interrupted after %d queries (no -checkpoint; progress not saved)\n", len(results))
		}
		return 130
	}
	if err != nil {
		return fail(err)
	}
	var sb strings.Builder
	for _, r := range results {
		fmt.Fprintf(&sb, "%d\t%g\n", r.Index, r.AvgRF)
	}
	if cfg.outPath != "" {
		if err := atomicio.WriteFile(cfg.outPath, []byte(sb.String())); err != nil {
			return fail(err)
		}
	} else {
		fmt.Print(sb.String())
	}
	// Fault-tolerance annotations stay off stdout: the result stream must
	// remain byte-identical to cmd/bfhrf.
	if len(out.DeadWorkers) > 0 {
		fmt.Fprintf(os.Stderr, "bfhrfd: lost workers during run: %s\n", strings.Join(out.DeadWorkers, ", "))
	}
	if out.Failovers > 0 {
		fmt.Fprintf(os.Stderr, "bfhrfd: %d shard(s) failed over; results are complete\n", out.Failovers)
	}
	if out.Partial {
		fmt.Fprintf(os.Stderr, "bfhrfd: PARTIAL RESULTS: minimum shard coverage %.1f%% of reference trees\n",
			out.Coverage*100)
	}
	slog.Info("run complete", "queries", len(results), "workers", coord.NumWorkers(),
		"alive", coord.AliveWorkers(), "failovers", out.Failovers,
		"partial", out.Partial, "coverage", out.Coverage)
	return 0
}
