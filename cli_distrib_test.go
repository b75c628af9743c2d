package repro

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCLIBfhrfd drives the multi-node pipeline end to end through the
// actual binaries: two worker processes, one coordinator, results compared
// against the single-node bfhrf tool.
func TestCLIBfhrfd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := buildCLIs(t)
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	queries := filepath.Join(data, "q.nwk")
	if _, stderr, err := run(t, "treegen", "-n", "12", "-r", "30", "-seed", "3", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}
	if _, stderr, err := run(t, "treegen", "-n", "12", "-r", "30", "-seed", "3", "-queries", "4", "-out", queries); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}

	// Two ephemeral worker ports.
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close() // free it for the worker process
	}
	for _, addr := range addrs {
		cmd := exec.Command(filepath.Join(dir, "bfhrfd"), "-serve", addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	}
	// Wait for the workers to accept.
	for _, addr := range addrs {
		ok := false
		for i := 0; i < 50; i++ {
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				ok = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("worker on %s never came up", addr)
		}
	}

	distOut, stderr, err := run(t, "bfhrfd",
		"-workers", strings.Join(addrs, ","), "-ref", refs, "-query", queries, "-chunk", "7")
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, stderr)
	}
	localOut, _, err := run(t, "bfhrf", "-ref", refs, "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf: %v", err)
	}
	if strings.TrimSpace(distOut) != strings.TrimSpace(localOut) {
		t.Errorf("distributed output differs from local:\n%s\nvs\n%s", distOut, localOut)
	}
	if n := len(strings.Split(strings.TrimSpace(distOut), "\n")); n != 4 {
		t.Errorf("distributed lines = %d, want 4", n)
	}
}

func TestCLIBfhrfdErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	if _, _, err := run(t, "bfhrfd"); err == nil {
		t.Error("no mode should exit non-zero")
	}
	if _, _, err := run(t, "bfhrfd", "-workers", "127.0.0.1:1", "-ref", "/nonexistent.nwk"); err == nil {
		t.Error("unreachable workers should exit non-zero")
	}
	if _, _, err := run(t, "bfhrfd", "-workers", "127.0.0.1:1"); err == nil {
		t.Error("missing -ref should exit non-zero")
	}
	// Mode flags are mutually exclusive, and coordinator-only flags are
	// rejected — not silently ignored — in worker mode.
	if _, stderr, err := run(t, "bfhrfd", "-serve", ":0", "-workers", "127.0.0.1:1"); err == nil {
		t.Error("-serve with -workers should exit non-zero")
	} else if !strings.Contains(stderr, "mutually exclusive") || !strings.Contains(stderr, "Usage") {
		t.Errorf("expected mutual-exclusion message with usage, got:\n%s", stderr)
	}
	if _, stderr, err := run(t, "bfhrfd", "-serve", ":0", "-ref", "x.nwk"); err == nil {
		t.Error("-serve with -ref should exit non-zero")
	} else if !strings.Contains(stderr, "coordinator flag") {
		t.Errorf("expected coordinator-flag rejection, got:\n%s", stderr)
	}
	if _, _, err := run(t, "bfhrfd", "-serve", ":0", "-query", "x.nwk"); err == nil {
		t.Error("-serve with -query should exit non-zero")
	}
	// The fault-tolerance knobs configure the coordinator's RPC layer and
	// are likewise rejected in worker mode.
	for _, args := range [][]string{
		{"-serve", ":0", "-partial-results"},
		{"-serve", ":0", "-rpc-timeout", "5s"},
		{"-serve", ":0", "-retries", "7"},
		{"-serve", ":0", "-health-interval", "1s"},
	} {
		if _, stderr, err := run(t, "bfhrfd", args...); err == nil {
			t.Errorf("%v should exit non-zero", args[2:])
		} else if !strings.Contains(stderr, "coordinator flag") {
			t.Errorf("%v: expected coordinator-flag rejection, got:\n%s", args[2:], stderr)
		}
	}
}

// TestCLIBfhrfdFaultFlags drives a coordinator run with every fault-
// tolerance flag set: the happy path must be unaffected (stdout identical
// to cmd/bfhrf) with the health loop running.
func TestCLIBfhrfdFaultFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := buildCLIs(t)
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	if _, stderr, err := run(t, "treegen", "-n", "10", "-r", "16", "-seed", "21", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}
	workerAddr, _ := startWorkerProcess(t)
	_ = dir

	distOut, stderr, err := run(t, "bfhrfd", "-workers", workerAddr, "-ref", refs,
		"-rpc-timeout", "10s", "-retries", "3", "-health-interval", "50ms", "-chunk", "5")
	if err != nil {
		t.Fatalf("coordinator with fault flags: %v\n%s", err, stderr)
	}
	localOut, _, err := run(t, "bfhrf", "-ref", refs)
	if err != nil {
		t.Fatalf("bfhrf: %v", err)
	}
	if strings.TrimSpace(distOut) != strings.TrimSpace(localOut) {
		t.Errorf("fault-flagged output differs from local:\n%s\nvs\n%s", distOut, localOut)
	}
	if strings.Contains(stderr, "PARTIAL") {
		t.Errorf("healthy run reported partial results:\n%s", stderr)
	}
}

func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	for _, bin := range []string{"bfhrf", "bfhrfd", "rfbench", "rfdist"} {
		stdout, stderr, err := run(t, bin, "-version")
		if err != nil {
			t.Errorf("%s -version: %v\n%s", bin, err, stderr)
			continue
		}
		if !strings.HasPrefix(stdout, bin+" ") || !strings.Contains(stdout, "revision") {
			t.Errorf("%s -version output = %q", bin, stdout)
		}
	}
}

// startWorkerProcess launches a bfhrfd worker with ephemeral RPC and admin
// ports, parses both bound addresses off its stderr, and returns them.
func startWorkerProcess(t *testing.T) (workerAddr, adminAddr string) {
	workerAddr, adminAddr, _ = startWorkerProcessCmd(t)
	return workerAddr, adminAddr
}

// startWorkerProcessCmd is startWorkerProcess returning the process handle
// too, and accepting extra environment entries — failover tests use
// BFHRF_FAULTS to schedule a deterministic mid-run crash in the worker.
func startWorkerProcessCmd(t *testing.T, env ...string) (workerAddr, adminAddr string, cmd *exec.Cmd) {
	t.Helper()
	cmd = exec.Command(filepath.Join(buildCLIs(t), "bfhrfd"), "-serve", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for workerAddr == "" || adminAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("worker exited before announcing addresses (worker=%q admin=%q)", workerAddr, adminAddr)
			}
			if rest, found := strings.CutPrefix(line, "bfhrfd: worker serving on "); found {
				workerAddr = strings.TrimSpace(rest)
			}
			if rest, found := strings.CutPrefix(line, "bfhrfd: admin serving on "); found {
				adminAddr = strings.TrimSpace(rest)
			}
		case <-deadline:
			t.Fatal("timed out waiting for worker to announce its addresses")
		}
	}
	// Drain the rest so the worker never blocks on a full stderr pipe.
	go func() {
		for range lines {
		}
	}()
	return workerAddr, adminAddr, cmd
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestCLIBfhrfdAdmin is the acceptance end-to-end: a worker started with
// `-serve :0 -admin :0` serves Prometheus metrics and a health endpoint
// that flips from not-ready to ready once its shard is loaded.
func TestCLIBfhrfdAdmin(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	dir := buildCLIs(t)
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	if _, stderr, err := run(t, "treegen", "-n", "10", "-r", "20", "-seed", "9", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}

	workerAddr, adminAddr := startWorkerProcess(t)

	// Before any references arrive the worker must report not-ready.
	status, body := httpGet(t, fmt.Sprintf("http://%s/healthz", adminAddr))
	if status != http.StatusServiceUnavailable {
		t.Errorf("pre-load healthz status = %d, want 503 (body %q)", status, body)
	}
	if !strings.Contains(body, "not ready") {
		t.Errorf("pre-load healthz body = %q", body)
	}

	// The metric families must exist (at zero) before any traffic.
	status, metrics := httpGet(t, fmt.Sprintf("http://%s/metrics", adminAddr))
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{
		"# TYPE bfhrf_rpc_latency_seconds histogram",
		"# TYPE bfhrf_bipartitions_hashed_total counter",
		"# TYPE bfhrf_queries_total counter",
		"# TYPE bfhrf_build_info gauge",
		"bfhrf_build_info{revision=",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("pre-load /metrics missing %q", want)
		}
	}

	// Run a real coordinator against the worker. The cache is disabled so
	// the worker-side query counter below stays exactly the query count
	// (with it on, repeated topologies never reach the worker — that path
	// has its own e2e in TestCLIBfhrfdQueryCache).
	out, stderr, err := run(t, "bfhrfd", "-workers", workerAddr, "-ref", refs, "-chunk", "6", "-query-cache=false")
	if err != nil {
		t.Fatalf("coordinator: %v\n%s", err, stderr)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 20 {
		t.Errorf("coordinator output lines = %d, want 20", n)
	}
	_ = dir

	// Health must have flipped to ready with the tree count.
	status, body = httpGet(t, fmt.Sprintf("http://%s/healthz", adminAddr))
	if status != http.StatusOK {
		t.Errorf("post-load healthz status = %d, want 200 (body %q)", status, body)
	}
	if !strings.Contains(body, `"trees":20`) {
		t.Errorf("post-load healthz body = %q, want 20 trees", body)
	}

	// And the traffic must show up in the worker's metrics.
	_, metrics = httpGet(t, fmt.Sprintf("http://%s/metrics", adminAddr))
	for _, want := range []string{
		`bfhrf_rpc_latency_seconds_count{method="Load",side="worker"}`,
		`bfhrf_rpc_latency_seconds_count{method="Query",side="worker"}`,
		"bfhrf_ref_trees_total 20",
		"bfhrf_queries_total 20",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("post-run /metrics missing %q\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "bfhrf_bipartitions_hashed_total 0\n") {
		t.Error("bipartitions-hashed counter never moved")
	}

	// pprof rides on the same listener.
	status, _ = httpGet(t, fmt.Sprintf("http://%s/debug/pprof/cmdline", adminAddr))
	if status != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", status)
	}
}

// scrapeCounter fetches one Prometheus counter's value off an admin
// endpoint's /metrics page.
func scrapeCounter(adminAddr, name string) (float64, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", adminAddr))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			return strconv.ParseFloat(fields[1], 64)
		}
	}
	return 0, fmt.Errorf("counter %s not on /metrics", name)
}

// cachedCoordinatorRun starts a coordinator (query cache on, ephemeral
// admin port) against the given workers, polls its /metrics until the
// cache reports its first hits, invokes atHits, then drains stdout and
// waits for exit. The coordinator cannot slip away before the poll
// succeeds: its result print exceeds the stdout pipe buffer, so the
// process blocks — admin server still up, every cache hit already counted
// — until this function starts draining.
func cachedCoordinatorRun(t *testing.T, addrs []string, refs, queries string, atHits func()) (stdout, stderr string, hits float64) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "bfhrfd"),
		"-workers", strings.Join(addrs, ","), "-ref", refs, "-query", queries,
		"-admin", "127.0.0.1:0", "-chunk", "7")
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	// Collect stderr in the background, catching the admin address as it
	// is announced.
	adminCh := make(chan string, 1)
	errDone := make(chan string, 1)
	go func() {
		var sb strings.Builder
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			sb.WriteString(line)
			sb.WriteByte('\n')
			if rest, found := strings.CutPrefix(line, "bfhrfd: admin serving on "); found {
				select {
				case adminCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
		errDone <- sb.String()
	}()

	var adminAddr string
	select {
	case adminAddr = <-adminCh:
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator never announced its admin address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for hits <= 0 {
		if time.Now().After(deadline) {
			t.Fatal("bfhrf_cache_hit_total never became positive on the coordinator")
		}
		hits, _ = scrapeCounter(adminAddr, "bfhrf_cache_hit_total")
		if hits <= 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if atHits != nil {
		atHits()
	}
	out, err := io.ReadAll(outPipe)
	if err != nil {
		t.Fatal(err)
	}
	stderr = <-errDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exited with %v\n%s", err, stderr)
	}
	return string(out), stderr, hits
}

// TestCLIBfhrfdQueryCache is the query-cache e2e: a repeat-heavy stream —
// eight distinct topologies cycled 2500 times — against a two-worker
// cluster. The coordinator-side cache must report hits on /metrics, and
// its stdout must be byte-identical to a cache-disabled run, including
// when one worker is killed mid-run and its shard fails over.
func TestCLIBfhrfdQueryCache(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	buildCLIs(t)
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	distinct := filepath.Join(data, "distinct.nwk")
	queries := filepath.Join(data, "q.nwk")
	if _, stderr, err := run(t, "treegen", "-n", "16", "-r", "60", "-seed", "5", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}
	if _, stderr, err := run(t, "treegen", "-n", "16", "-r", "60", "-seed", "5", "-queries", "8", "-moves", "2", "-out", distinct); err != nil {
		t.Fatalf("treegen -queries: %v\n%s", err, stderr)
	}
	block, err := os.ReadFile(distinct)
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 2500
	var sb strings.Builder
	sb.Grow(len(block) * repeats)
	for i := 0; i < repeats; i++ {
		sb.Write(block)
	}
	if err := os.WriteFile(queries, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	wantLines := repeats * 8

	// Baseline: the same stream with the cache disabled, every repeat
	// re-scattered to the workers.
	a1, _ := startWorkerProcess(t)
	a2, _ := startWorkerProcess(t)
	baseline, stderr, err := run(t, "bfhrfd", "-workers", a1+","+a2,
		"-ref", refs, "-query", queries, "-chunk", "7", "-query-cache=false")
	if err != nil {
		t.Fatalf("cache-disabled coordinator: %v\n%s", err, stderr)
	}
	if n := len(strings.Split(strings.TrimSpace(baseline), "\n")); n != wantLines {
		t.Fatalf("baseline lines = %d, want %d", n, wantLines)
	}

	t.Run("hits", func(t *testing.T) {
		b1, _ := startWorkerProcess(t)
		b2, _ := startWorkerProcess(t)
		out, _, hits := cachedCoordinatorRun(t, []string{b1, b2}, refs, queries, nil)
		if hits <= 0 {
			t.Fatalf("cache hits = %v, want > 0", hits)
		}
		if out != baseline {
			t.Error("cached output differs from cache-disabled baseline")
		}
	})

	t.Run("worker-killed-mid-run", func(t *testing.T) {
		// The repeat-heavy stream above is useless here: its eight
		// topologies all enter the cache in the first batch, after which
		// the coordinator never talks to a worker again — there is no
		// "mid-run" left to kill. This stream interleaves fresh
		// topologies with the eight repeats, so batches keep scattering
		// (and the repeats keep hitting) for the whole run.
		fresh := filepath.Join(data, "fresh.nwk")
		mixed := filepath.Join(data, "mixed.nwk")
		if _, stderr, err := run(t, "treegen", "-n", "16", "-r", "2000", "-seed", "6",
			"-out", fresh); err != nil {
			t.Fatalf("treegen fresh: %v\n%s", err, stderr)
		}
		freshBytes, err := os.ReadFile(fresh)
		if err != nil {
			t.Fatal(err)
		}
		freshLines := strings.Split(strings.TrimSpace(string(freshBytes)), "\n")
		distinctLines := strings.Split(strings.TrimSpace(string(block)), "\n")
		var mb strings.Builder
		for i, line := range freshLines {
			mb.WriteString(line)
			mb.WriteByte('\n')
			mb.WriteString(distinctLines[i%len(distinctLines)])
			mb.WriteByte('\n')
		}
		if err := os.WriteFile(mixed, []byte(mb.String()), 0o644); err != nil {
			t.Fatal(err)
		}

		// Baseline: cache disabled, both workers healthy.
		c1, _ := startWorkerProcess(t)
		c2, _ := startWorkerProcess(t)
		mixedBase, stderr, err := run(t, "bfhrfd", "-workers", c1+","+c2,
			"-ref", refs, "-query", mixed, "-chunk", "7", "-query-cache=false")
		if err != nil {
			t.Fatalf("cache-disabled coordinator: %v\n%s", err, stderr)
		}

		// The victim arms a deterministic crash: exit on the 600th tree it
		// folds or probes. Its reference shard is ~30 trees and each
		// scattered batch is ~130 more, so the crash lands several batches
		// into the query phase — reliably after load, reliably before EOF.
		d1, _ := startWorkerProcess(t)
		d2, _, victim := startWorkerProcessCmd(t, "BFHRF_FAULTS=worker.tree:crash@600")
		out, coordErr, err := run(t, "bfhrfd", "-workers", d1+","+d2,
			"-ref", refs, "-query", mixed, "-chunk", "7")
		if err != nil {
			t.Fatalf("coordinator with crashing worker: %v\n%s", err, coordErr)
		}
		if werr := victim.Wait(); werr == nil {
			t.Error("victim worker exited cleanly; the armed crash never fired")
		}
		if out != mixedBase {
			t.Error("cached output after worker crash differs from cache-disabled baseline")
		}
		if !strings.Contains(coordErr, "lost workers during run") &&
			!strings.Contains(coordErr, "failed over") {
			t.Errorf("no failover evidence on coordinator stderr:\n%s", coordErr)
		}
	})
}
