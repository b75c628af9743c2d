package repro

// End-to-end tests of bfhrfd's serve mode (-serve-http) through the real
// binaries: a standalone snapshot-backed service, SIGTERM drain with a
// query in flight, and a coordinator-backed service surviving a worker
// crash mid-request.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// queryResponse mirrors the /v1/query JSON answer.
type queryResponse struct {
	Collection string  `json:"collection"`
	Epoch      uint64  `json:"epoch"`
	Variant    string  `json:"variant"`
	Coverage   float64 `json:"coverage"`
	Results    []struct {
		Index int     `json:"index"`
		AvgRF float64 `json:"avg_rf"`
	} `json:"results"`
}

// serveProc is a bfhrfd -serve-http subprocess with its announced admin
// address and collected stderr.
type serveProc struct {
	cmd       *exec.Cmd
	adminAddr string
	ready     chan struct{} // closed once the query service announces itself
	scanDone  chan struct{} // closed once the stderr pipe hits EOF
	mu        sync.Mutex
	stderr    strings.Builder
}

// Stderr returns everything the process has written to stderr so far.
func (p *serveProc) Stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// signal delivers sig to the process.
func (p *serveProc) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal %v: %v", sig, err)
	}
}

// waitExit waits for the process to exit and returns its exit code,
// failing the test if it does not exit within the timeout. The stderr
// scanner must hit EOF before Wait closes the pipe, or the final lines
// ("drained, exiting") can be lost to the read race.
func (p *serveProc) waitExit(t *testing.T, timeout time.Duration) int {
	t.Helper()
	select {
	case <-p.scanDone:
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		t.Fatalf("serve process did not exit within %s; stderr:\n%s", timeout, p.Stderr())
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
		return -1
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		t.Fatalf("serve process did not exit within %s; stderr:\n%s", timeout, p.Stderr())
		return -1
	}
}

// startServeProc launches a bfhrfd serve-mode process, parses the admin
// address off its stderr, and closes ready once the "serving" line (the
// query service accepting requests) appears. Extra env entries arm
// BFHRF_FAULTS chaos in the child.
func startServeProc(t *testing.T, env []string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), "bfhrfd"), args...)
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
	p := &serveProc{cmd: cmd, ready: make(chan struct{}), scanDone: make(chan struct{})}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	adminCh := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		readyClosed := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line)
			p.stderr.WriteByte('\n')
			p.mu.Unlock()
			if rest, found := strings.CutPrefix(line, "bfhrfd: admin serving on "); found {
				select {
				case adminCh <- strings.TrimSpace(rest):
				default:
				}
			}
			if !readyClosed && (strings.Contains(line, "bfhrfd: serving queries for collection") ||
				strings.Contains(line, "collection(s) over HTTP")) {
				readyClosed = true
				close(p.ready)
			}
		}
	}()
	select {
	case p.adminAddr = <-adminCh:
	case <-time.After(20 * time.Second):
		t.Fatalf("serve process never announced its admin address; stderr:\n%s", p.Stderr())
	}
	select {
	case <-p.ready:
	case <-time.After(20 * time.Second):
		t.Fatalf("serve process never announced its query service; stderr:\n%s", p.Stderr())
	}
	return p
}

// postQueryJSON POSTs body to the process's /v1/query and decodes the
// response. The generous client timeout is the no-hang guard: every
// failure mode must surface as a status code, not a stuck connection.
func postQueryJSON(t *testing.T, adminAddr, tenant string, body any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", fmt.Sprintf("http://%s/v1/query", adminAddr), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// baselineAvgRF parses bfhrf's "index\tavgRF" stdout into a dense slice.
func baselineAvgRF(t *testing.T, stdout string, want int) []float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != want {
		t.Fatalf("baseline lines = %d, want %d:\n%s", len(lines), want, stdout)
	}
	out := make([]float64, len(lines))
	for _, line := range lines {
		fields := strings.Split(line, "\t")
		if len(fields) != 2 {
			t.Fatalf("malformed baseline line %q", line)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		out[idx] = v
	}
	return out
}

// serveFixture generates reference and query tree files, publishes the
// references as epoch 1 of a bfhsnap store, and writes a catalog
// manifest naming it "refs". Returns (refs, queries, manifest) paths.
func serveFixture(t *testing.T) (string, string, string) {
	t.Helper()
	data := t.TempDir()
	refs := filepath.Join(data, "refs.nwk")
	queries := filepath.Join(data, "q.nwk")
	snap := filepath.Join(data, "snap")
	manifest := filepath.Join(data, "collections.json")
	if _, stderr, err := run(t, "treegen", "-n", "12", "-r", "24", "-seed", "17", "-out", refs); err != nil {
		t.Fatalf("treegen: %v\n%s", err, stderr)
	}
	if _, stderr, err := run(t, "treegen", "-n", "12", "-r", "24", "-seed", "17", "-queries", "5", "-moves", "2", "-out", queries); err != nil {
		t.Fatalf("treegen -queries: %v\n%s", err, stderr)
	}
	if _, stderr, err := run(t, "bfhrf", "-ref", refs, "-save-bfh", snap); err != nil {
		t.Fatalf("bfhrf -save-bfh: %v\n%s", err, stderr)
	}
	m := fmt.Sprintf(`{"collections":[{"name":"refs","dir":%q}]}`, snap)
	if err := os.WriteFile(manifest, []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	return refs, queries, manifest
}

// readTreeLines loads the newline-separated newick strings of path.
func readTreeLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}

// TestCLIServeStandalone is the serve-mode acceptance e2e: a standalone
// bfhrfd serves a snapshot collection over HTTP, its /v1/query answers
// match the single-node bfhrf baseline exactly, and SIGTERM drains it
// to a clean zero exit with /healthz flipped to draining.
func TestCLIServeStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	_, queries, manifest := serveFixture(t)
	qTrees := readTreeLines(t, queries)

	// Single-node baseline through the snapshot path — byte-for-byte the
	// same hash the service will load.
	base, _, err := run(t, "bfhrf", "-load-bfh", readManifestDir(t, manifest), "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf -load-bfh baseline: %v", err)
	}
	want := baselineAvgRF(t, base, len(qTrees))

	p := startServeProc(t, nil, "-serve-http", "-collections", manifest, "-admin", "127.0.0.1:0")

	status, body := httpGet(t, fmt.Sprintf("http://%s/healthz", p.adminAddr))
	if status != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz = %d %q, want 200 ok", status, body)
	}

	status, body = postQueryJSON(t, p.adminAddr, "e2e", map[string]any{
		"collection": "refs", "trees": qTrees,
	})
	if status != http.StatusOK {
		t.Fatalf("query status = %d, body %q", status, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad query response %q: %v", body, err)
	}
	if resp.Collection != "refs" || resp.Epoch != 1 || resp.Coverage != 1 {
		t.Errorf("response meta = %q/%d/%g, want refs/1/1", resp.Collection, resp.Epoch, resp.Coverage)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(want))
	}
	for _, r := range resp.Results {
		if r.AvgRF != want[r.Index] {
			t.Errorf("query %d: avg_rf = %v, want %v (bfhrf baseline)", r.Index, r.AvgRF, want[r.Index])
		}
	}

	// The shed counter family must be visible (at zero) on /metrics.
	if _, metrics := httpGet(t, fmt.Sprintf("http://%s/metrics", p.adminAddr)); !strings.Contains(metrics, "bfhrf_requests_shed_total") {
		t.Error("/metrics missing bfhrf_requests_shed_total")
	}

	// SIGTERM with nothing in flight: an immediate clean drain. (The
	// healthz draining flip has a real observation window only with a
	// query in flight — TestCLIServeDrainMidFlight asserts it.)
	p.signal(t, syscall.SIGTERM)
	if code := p.waitExit(t, 15*time.Second); code != 0 {
		t.Errorf("exit code = %d, want 0; stderr:\n%s", code, p.Stderr())
	}
	if !strings.Contains(p.Stderr(), "drained, exiting") {
		t.Errorf("no drain confirmation on stderr:\n%s", p.Stderr())
	}
}

// readManifestDir extracts the single collection dir from a fixture
// manifest, so baselines can hit the same snapshot store.
func readManifestDir(t *testing.T, manifest string) string {
	t.Helper()
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Collections []struct {
			Dir string `json:"dir"`
		} `json:"collections"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Collections) != 1 {
		t.Fatalf("fixture manifest has %d collections, want 1", len(m.Collections))
	}
	return m.Collections[0].Dir
}

// TestCLIServeDrainMidFlight arms a delay fault inside query execution,
// fires queries that are still running when SIGTERM lands, and asserts
// the drain semantics: the in-flight queries complete with correct
// answers, new work is shed, and the process exits 0.
func TestCLIServeDrainMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	_, queries, manifest := serveFixture(t)
	qTrees := readTreeLines(t, queries)
	base, _, err := run(t, "bfhrf", "-load-bfh", readManifestDir(t, manifest), "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf baseline: %v", err)
	}
	want := baselineAvgRF(t, base, len(qTrees))

	// Every admitted query sleeps 600ms at the backend boundary, so the
	// SIGTERM below is guaranteed to land mid-flight.
	p := startServeProc(t, []string{"BFHRF_FAULTS=serve.query:delay@1x*:600ms"},
		"-serve-http", "-collections", manifest, "-admin", "127.0.0.1:0", "-drain-timeout", "30s")

	type answer struct {
		status int
		body   string
	}
	results := make(chan answer, 2)
	for i := 0; i < 2; i++ {
		go func() {
			s, b := postQueryJSON(t, p.adminAddr, "drain", map[string]any{
				"collection": "refs", "trees": qTrees,
			})
			results <- answer{s, b}
		}()
	}
	// Let both requests pass admission and reach the armed delay, then
	// drain under them.
	time.Sleep(200 * time.Millisecond)
	p.signal(t, syscall.SIGTERM)

	// While the delayed queries hold the service open, /healthz must
	// report draining and fresh work must be shed with a Retry-After.
	flipped := false
	var status int
	var body string
	for i := 0; i < 30 && !flipped; i++ {
		status, body = httpGet(t, fmt.Sprintf("http://%s/healthz", p.adminAddr))
		flipped = status == http.StatusServiceUnavailable && strings.Contains(body, "draining")
		if !flipped {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !flipped {
		t.Errorf("healthz never flipped to draining mid-drain (last: %d %q)", status, body)
	}
	status, body = postQueryJSON(t, p.adminAddr, "drain", map[string]any{
		"collection": "refs", "trees": qTrees,
	})
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("fresh query during drain = %d %q, want 503 draining", status, body)
	}

	for i := 0; i < 2; i++ {
		a := <-results
		if a.status != http.StatusOK {
			t.Fatalf("in-flight query during drain: status %d, body %q", a.status, a.body)
		}
		var resp queryResponse
		if err := json.Unmarshal([]byte(a.body), &resp); err != nil {
			t.Fatalf("bad response %q: %v", a.body, err)
		}
		for _, r := range resp.Results {
			if r.AvgRF != want[r.Index] {
				t.Errorf("drained query %d: avg_rf = %v, want %v", r.Index, r.AvgRF, want[r.Index])
			}
		}
	}
	if code := p.waitExit(t, 20*time.Second); code != 0 {
		t.Errorf("exit code = %d, want 0; stderr:\n%s", code, p.Stderr())
	}
	if !strings.Contains(p.Stderr(), "drained, exiting") {
		t.Errorf("no drain confirmation on stderr:\n%s", p.Stderr())
	}
}

// TestCLIServeCoordinatorChaos runs the coordinator-backed service with
// a worker armed to crash mid-request: the HTTP client must get a clean
// response — a 200 (failover recovered the shard) or a 5xx — never a
// hang, and the coordinator must stay up for subsequent queries.
func TestCLIServeCoordinatorChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI tests in -short mode")
	}
	refs, queries, _ := serveFixture(t)
	qTrees := readTreeLines(t, queries)
	base, _, err := run(t, "bfhrf", "-ref", refs, "-query", queries)
	if err != nil {
		t.Fatalf("bfhrf baseline: %v", err)
	}
	want := baselineAvgRF(t, base, len(qTrees))

	// The 24 reference trees split into -chunk 7 chunks of 7/7/7/3, dealt
	// round-robin: the victim (worker 1) folds chunks 1 and 3 — exactly
	// 10 trees — at load. crash@13 therefore lands on the 3rd query tree
	// of the first /v1/query scatter: after load, mid-request.
	survivor, _ := startWorkerProcess(t)
	victimAddr, _, victim := startWorkerProcessCmd(t, "BFHRF_FAULTS=worker.tree:crash@13")

	p := startServeProc(t, nil,
		"-workers", survivor+","+victimAddr, "-ref", refs, "-chunk", "7",
		"-serve-http", "-collection-name", "refs", "-admin", "127.0.0.1:0",
		"-retries", "3", "-rpc-timeout", "10s")

	status, body := postQueryJSON(t, p.adminAddr, "chaos", map[string]any{
		"collection": "refs", "trees": qTrees,
	})
	if status != http.StatusOK && (status < 500 || status > 599) {
		t.Fatalf("chaos query status = %d, want 200 or 5xx; body %q", status, body)
	}
	if status == http.StatusOK {
		var resp queryResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("bad response %q: %v", body, err)
		}
		if resp.Coverage == 1 {
			// Full coverage means failover recovered the dead shard: the
			// answers must match the single-node baseline exactly.
			for _, r := range resp.Results {
				if r.AvgRF != want[r.Index] {
					t.Errorf("post-failover query %d: avg_rf = %v, want %v", r.Index, r.AvgRF, want[r.Index])
				}
			}
		}
	}
	if werr := victim.Wait(); werr == nil {
		t.Error("victim worker exited cleanly; the armed crash never fired")
	}

	// The service survives the crash: a follow-up query on the surviving
	// cluster must answer correctly.
	status, body = postQueryJSON(t, p.adminAddr, "chaos", map[string]any{
		"collection": "refs", "trees": qTrees,
	})
	if status != http.StatusOK {
		t.Fatalf("post-crash query status = %d, body %q", status, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad response %q: %v", body, err)
	}
	if resp.Coverage != 1 {
		t.Errorf("post-crash coverage = %g, want 1 (survivor holds every shard after failover)", resp.Coverage)
	}
	for _, r := range resp.Results {
		if r.AvgRF != want[r.Index] {
			t.Errorf("post-crash query %d: avg_rf = %v, want %v", r.Index, r.AvgRF, want[r.Index])
		}
	}

	p.signal(t, syscall.SIGTERM)
	if code := p.waitExit(t, 20*time.Second); code != 0 {
		t.Errorf("exit code = %d, want 0; stderr:\n%s", code, p.Stderr())
	}
}
