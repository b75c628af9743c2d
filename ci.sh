#!/usr/bin/env bash
# ci.sh — one-command tier-1 verification.
#
#   ./ci.sh            gofmt + doc gate + vet (root and perfbench) + build +
#                      tests + scanner/extract/prober/decode benchmarks + race
#                      (fast subset, incl. the distrib failover/health
#                      tests) + fuzz smoke + admin smoke + snapshot
#                      round-trip smoke
#   CI_PERF=1 ./ci.sh  additionally gate the perf sweep against BENCH_0007.json
#
# The perf gate is opt-in because wall-clock measurements on a loaded CI
# machine can exceed the noise threshold without any code change; run it
# on quiet hardware (see "Tracking performance" in README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
  echo "ci.sh: gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== doc gate (internal/doclint) =="
go run ./internal/doclint/cmd/doclint .

echo "== go vet =="
go vet ./...
# The benchmark harness is its own module (perfbench/go.mod), so the root
# vet and build skip it; vet it here so an API break surfaces in CI
# rather than only when the benchmark runs.
(cd perfbench && go vet ./...)

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== scanner, extract, prober and decode benchmarks (one iteration; the scanner, extract and prober ones fail if they allocate) =="
go test -run '^$' -bench 'Scanner|ExtractNewick|Extract$' -benchtime=1x ./internal/newick ./internal/bipart
go test -run '^$' -bench 'Prober' -benchtime=1x ./internal/core
go test -run '^$' -bench 'DecodeQuery' -benchtime=1x ./internal/serve

echo "== go test -race (fast subset) =="
go test -race -short \
  ./internal/atomicio ./internal/bfhtable ./internal/bipart \
  ./internal/bitset ./internal/checkpoint ./internal/collection \
  ./internal/core ./internal/distrib ./internal/faultinject \
  ./internal/memprof ./internal/newick ./internal/nexus \
  ./internal/obs ./internal/perfjson ./internal/profhook \
  ./internal/seqrf ./internal/serve ./internal/stats \
  ./internal/tabfmt ./internal/taxa ./internal/tree

echo "== go test -race (the caller-runs worker pool, 1 and 4 CPUs) =="
# The pool reports the earliest bad tree in stream order whichever worker,
# the caller or a helper, fails first, runs a one-worker pass on the
# caller alone, and keeps a cancelled pass's finished results; a 2-CPU
# host never runs it at other GOMAXPROCS values, so pin both ends here.
go test -race -count=1 -cpu 1,4 \
  -run 'Pool|EarliestBadTree|FirstBadTree|RawPath|FusedPath|QuerySkip|QueryCancel' \
  ./internal/core ./internal/collection

echo "== go test -race (distrib fault tolerance) =="
# The failover, retry, and health-loop paths are the concurrency-heavy
# new surface; run them explicitly under the race detector (not -short,
# so nothing in them can quietly skip).
go test -race -run 'Failover|PartialResults|Retry|Health|Adopt|LoadSeq|WorkerDies|Traced|SplitWire|Protocol' \
  ./internal/distrib

echo "== chaos smoke (seeded fault schedules under -race) =="
# The full chaos sweep (50+ schedules, single-node + distributed) plus
# the subprocess kill-and-resume e2e tests. Schedules are deterministic,
# so a failure here names a replayable BFHRF_FAULTS spec.
go test -race -run 'TestChaos' -count=1 ./internal/faultinject
go test -run 'TestCrashAndResume|TestCorruptCheckpointQuarantine|TestResumeRejectsForeignCheckpoint' \
  -count=1 ./cmd/bfhrf
# Kill-and-reload chaos for the snapshot store: crash inside every
# window of the epoch publish/reap protocol, then reload and demand
# byte-identical answers.
go test -run 'TestSnapshotCrashAndReload|TestDeltaMatchesScratchBuild' -count=1 ./cmd/bfhrf

echo "== go test -race (checkpointed runs: checkpoint.Run, bfhrf and bfhrfd resume) =="
# One function (internal/checkpoint Run.Query) runs every checkpointed
# query for the library, bfhrf and the bfhrfd coordinator; its record
# hook runs on query worker goroutines, so its contract tests and every
# caller's resume tests run under the race detector.
go test -race -count=1 \
  -run '^(TestResum|TestRun|TestCLIBfhrfdCheckpointResume|TestCrashAndResume|TestCorruptCheckpointQuarantine)' \
  . ./cmd/bfhrf ./internal/checkpoint

echo "== go test -race (one cancellation signal: cancel, deadline, drain, stitched traces, signals) =="
# The caller's context is the one stop signal from the HTTP handler and
# the CLIs down to core's worker pool, and it carries the request's trace;
# bfhrfd's soft drain is the one channel left. Run every path that stops
# a query early, and the trace stitching the same context carries.
go test -race -count=1 -run 'Cancel|Deadline|Drain|Stitched|Signal' \
  ./internal/core ./internal/distrib ./internal/serve ./internal/checkpoint ./cmd/bfhrf .

echo "== go test -race (one-pass reference build: equivalence, read once, skip reported once, empty query) =="
# The reference catalogue is the first tree's leaf set, read in the same
# pass as the build. The one-pass build must equal the union scan plus
# build bit for bit, read each reference statement once, report each
# skipped tree once, and treat an empty query collection as an error; the
# single-node chaos sweep truncates files under exactly these passes. The
# build starts its workers as the feed reaches them, so a small collection
# of unknown size still builds on one worker, deterministically.
go test -race -count=1 \
  -run 'TestBuildRefsMatchesTwoPass|TestReferenceStatementsReadOnce|TestBadTreeReportedOnce|TestEmptyQueryIsError|TestFirstTaxa|TestLenientReportsEachSkipOnce|TestChaosSingleNode|TestRampStartsOneWorkerPer64Trees|TestSmallBuildOfUnknownSizeIsDeterministic' \
  . ./internal/collection ./internal/core ./internal/faultinject

echo "== fuzz smoke (10s per target) =="
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s ./internal/newick
go test -run='^$' -fuzz=FuzzParseMatchesReference -fuzztime=10s ./internal/newick
go test -run='^$' -fuzz=FuzzParse -fuzztime=10s ./internal/nexus
go test -run='^$' -fuzz=FuzzExtractNewick -fuzztime=10s ./internal/bipart
go test -run='^$' -fuzz=FuzzExtractMatchesReference -fuzztime=10s ./internal/bipart
go test -run='^$' -fuzz=FuzzServeQuery -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz=FuzzTable -fuzztime=10s ./internal/bfhtable
go test -run='^$' -fuzz=FuzzSuccinct -fuzztime=10s ./internal/bfhtable
go test -run='^$' -fuzz=FuzzFingerprint -fuzztime=10s ./internal/core
go test -run='^$' -fuzz=FuzzSnapshot -fuzztime=10s ./internal/bfhsnap
go test -run='^$' -fuzz=FuzzWorkerQueryWords -fuzztime=10s ./internal/distrib

echo "== bfhrfd admin endpoint smoke =="
# Start a worker on ephemeral RPC+admin ports, scrape /healthz and
# /metrics, check the operator-facing metric families exist, shut down.
tmpdir="$(mktemp -d)"
worker_pid=""
serve_pid=""
trap 'for p in "$worker_pid" "$serve_pid"; do [[ -n "$p" ]] && kill "$p" 2>/dev/null || true; done; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/bfhrfd" ./cmd/bfhrfd
"$tmpdir/bfhrfd" -serve 127.0.0.1:0 -admin 127.0.0.1:0 2>"$tmpdir/worker.log" &
worker_pid=$!
admin_addr=""
for _ in $(seq 1 100); do
  admin_addr="$(sed -n 's/^bfhrfd: admin serving on //p' "$tmpdir/worker.log")"
  [[ -n "$admin_addr" ]] && break
  sleep 0.1
done
[[ -n "$admin_addr" ]] || { echo "ci.sh: bfhrfd never announced its admin address" >&2; cat "$tmpdir/worker.log" >&2; exit 1; }
health="$(curl -s -o /dev/null -w '%{http_code}' "http://$admin_addr/healthz")"
[[ "$health" == "503" ]] || { echo "ci.sh: pre-load /healthz = $health, want 503" >&2; exit 1; }
metrics="$(curl -fsS "http://$admin_addr/metrics")"
for family in bfhrf_rpc_latency_seconds bfhrf_bipartitions_hashed_total bfhrf_queries_total bfhrf_build_info bfhrf_go_goroutines; do
  grep -q "^# TYPE $family " <<<"$metrics" || { echo "ci.sh: /metrics missing family $family" >&2; exit 1; }
done
traces="$(curl -fsS "http://$admin_addr/debug/traces")"
grep -q '"count"' <<<"$traces" || { echo "ci.sh: /debug/traces returned no trace listing: $traces" >&2; exit 1; }
kill "$worker_pid"
wait "$worker_pid" 2>/dev/null || true
echo "admin smoke: /healthz, /metrics and /debug/traces OK on $admin_addr"

echo "== trace smoke (bfhrf -trace-out → tracevet) =="
# A real single-node run with tracing on must export at least one valid
# JSONL trace; tracevet is the schema gate.
go build -o "$tmpdir/treegen" ./cmd/treegen
go build -o "$tmpdir/bfhrf" ./cmd/bfhrf
go build -o "$tmpdir/tracevet" ./cmd/tracevet
"$tmpdir/treegen" -n 16 -r 40 -seed 7 -out "$tmpdir/refs.nwk"
"$tmpdir/bfhrf" -ref "$tmpdir/refs.nwk" -trace-out "$tmpdir/traces.jsonl" -slow-query 1ns >/dev/null 2>"$tmpdir/trace.log"
"$tmpdir/tracevet" -min-traces 1 "$tmpdir/traces.jsonl"
grep -q "slow query" "$tmpdir/trace.log" || { echo "ci.sh: -slow-query 1ns produced no slow-query log line" >&2; exit 1; }

echo "== snapshot round-trip smoke (save → load → identical answers, both backends) =="
# For each hash backend: build from the reference file and persist an
# epoch, then answer the same queries from the loaded snapshot and from
# the fresh build; outputs must be byte-identical.
"$tmpdir/treegen" -n 24 -r 60 -seed 11 -out "$tmpdir/snaprefs.nwk"
"$tmpdir/treegen" -n 24 -r 60 -seed 12 -queries 8 -moves 2 -out "$tmpdir/snapq.nwk"
for backend in openaddr succinct; do
  snapdir="$tmpdir/snap-$backend"
  "$tmpdir/bfhrf" -ref "$tmpdir/snaprefs.nwk" -query "$tmpdir/snapq.nwk" -backend "$backend" \
    -save-bfh "$snapdir" -o "$tmpdir/built-$backend.tsv" >/dev/null
  "$tmpdir/bfhrf" -load-bfh "$snapdir" -query "$tmpdir/snapq.nwk" \
    -o "$tmpdir/loaded-$backend.tsv" >/dev/null
  cmp "$tmpdir/built-$backend.tsv" "$tmpdir/loaded-$backend.tsv" \
    || { echo "ci.sh: $backend snapshot round trip changed the answers" >&2; exit 1; }
done
echo "snapshot smoke: save/load round trip byte-identical for both backends"

echo "== serve overload smoke (tiny queue, concurrent hammer, shed + recover) =="
# A standalone query service over the openaddr snapshot from above, with
# a one-slot queue and a 200ms injected delay per query so the hammer
# reliably overflows admission. The burst must shed (counter moves),
# and afterwards the service must still be healthy and still answer the
# pre-burst query byte-identically.
cat > "$tmpdir/collections.json" <<EOF
{"collections": [{"name": "smoke", "dir": "$tmpdir/snap-openaddr"}]}
EOF
BFHRF_FAULTS='serve.query:delay@1x*:200ms' "$tmpdir/bfhrfd" -serve-http \
  -collections "$tmpdir/collections.json" -admin 127.0.0.1:0 \
  -max-inflight 1 -queue-depth 1 2>"$tmpdir/serve.log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^bfhrfd: admin serving on //p' "$tmpdir/serve.log")"
  [[ -n "$serve_addr" ]] && break
  sleep 0.1
done
[[ -n "$serve_addr" ]] || { echo "ci.sh: serve-http bfhrfd never announced its admin address" >&2; cat "$tmpdir/serve.log" >&2; exit 1; }
qtree="$(head -1 "$tmpdir/snapq.nwk")"
qbody="{\"collection\":\"smoke\",\"trees\":[\"$qtree\"]}"
curl -fsS -X POST -d "$qbody" "http://$serve_addr/v1/query" >"$tmpdir/serve-pre.json"
grep -q '"avg_rf"' "$tmpdir/serve-pre.json" || { echo "ci.sh: pre-burst query returned no results: $(cat "$tmpdir/serve-pre.json")" >&2; exit 1; }
hammer_pids=()
for _ in $(seq 1 40); do
  curl -s -o /dev/null -X POST -d "$qbody" "http://$serve_addr/v1/query" &
  hammer_pids+=("$!")
done
wait "${hammer_pids[@]}" 2>/dev/null || true
shed="$(curl -fsS "http://$serve_addr/metrics" | awk '/^bfhrf_requests_shed_total\{/ {s+=$2} END {print s+0}')"
[[ "$shed" -gt 0 ]] || { echo "ci.sh: hammer never shed (bfhrf_requests_shed_total = $shed)" >&2; exit 1; }
health="$(curl -s "http://$serve_addr/healthz")"
grep -q '"status":"ok"' <<<"$health" || { echo "ci.sh: post-burst /healthz = $health, want ok" >&2; exit 1; }
curl -fsS -X POST -d "$qbody" "http://$serve_addr/v1/query" >"$tmpdir/serve-post.json"
cmp -s "$tmpdir/serve-pre.json" "$tmpdir/serve-post.json" \
  || { echo "ci.sh: post-burst answer differs from pre-burst" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "serve smoke: shed $shed request(s) under the burst, healthy and byte-identical after"

if [[ "${CI_PERF:-0}" == "1" ]]; then
  echo "== perf gate (rfbench -compare BENCH_0007.json) =="
  go run ./cmd/rfbench -compare BENCH_0007.json -threshold 0.10 -reps 5
fi

echo "ci.sh: all checks passed"
