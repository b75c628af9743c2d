package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/bfhsnap"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tree"
)

const (
	// lateLimit marks a run invalid (see judgeGenerator).
	lateLimit = 2 * time.Millisecond
	// latencyWindow is the slice of the open-loop phase whose percentiles
	// are taken separately; the reported value is their median, so a
	// burst of interference from outside the process that spoils one
	// slice does not move it.
	latencyWindow = time.Second
)

// ladder are the multiples of the workload's offered rate the traced run
// climbs to find serve.max_rps.
var ladder = []float64{1, 1.5, 2, 3, 4, 6}

// runServe drives a serve workload: open the collection (setup_s), serve
// POST /v1/query from an in-process HTTP service, and offer it a fixed
// request rate open loop (p50_ms, p90_ms, and query_tps as goodput).
func runServe(r *run) error {
	raws, err := readRaw(r.fx.queries, poolTrees(r.o.smoke))
	if err != nil {
		return err
	}
	reqs, err := newRequests(raws)
	if err != nil {
		return err
	}
	b, err := r.openBackend()
	if err != nil {
		return err
	}
	defer b.close()
	var sb serve.Backend = b.backend
	if r.o.trace {
		sb = timedBackend{b.backend, r.rec}
	}
	srv, err := startServer(sb)
	if err != nil {
		return err
	}
	defer srv.stop()
	tg := newTarget(srv.url, reqs)
	defer tg.close()

	r.mark("setup")
	// Warm connections, pools and caches; these answers are not counted.
	tg.openLoop(r.w.rate, seconds(0.5), nil)

	if !r.o.trace {
		runtime.GC()
		start := time.Now()
		open := tg.openLoop(r.w.rate, seconds(r.o.seconds), nil)
		elapsed := time.Since(start)
		r.set("peak_rss_mb", peakRSSMiB())
		r.mark("open loop")
		lat, late := latencies(open)
		window := max(1, int(r.w.rate*latencyWindow.Seconds()))
		r.set("p50_ms", windowed(lat, window, 50))
		r.set("p90_ms", windowed(lat, window, 90))
		r.set("query_tps", float64(countOK(open)*requestTrees)/elapsed.Seconds())
		r.judgeGenerator(late)
		r.info["samples"] = map[string]int{"setup_s": r.setupReps(), "p50_ms": len(lat),
			"p90_ms": len(lat), "latency_window": window, "query_tps": len(open)}
		r.info["latency_ms"] = latencyProfile(lat)
		err := r.checkServe(reqs, open)
		r.mark("answer check")
		return err
	}

	// Traced run: the open-loop phase with tracing off, then on; counters,
	// GC and the admission queue are read over the traced half only.
	runtime.GC()
	plain := tg.openLoop(r.w.rate, seconds(r.phase(0.5)), nil)
	before := readCounters(b.addrs)
	tracing(true)
	depth := sampleGauge("bfhrf_request_queue_depth")
	traced := tg.openLoop(r.w.rate, seconds(r.phase(0.5)), r.rec)
	r.set("serve.queue_depth_max", depth())
	tracing(false)
	d := readCounters(b.addrs).since(before)
	r.setPhaseMetrics(d)
	r.set("distrib.retries", float64(d.retries))
	plainLat, _ := latencies(plain)
	tracedLat, late := latencies(traced)
	r.set("gen.late_p99_ms", percentile(late, 99))
	r.set("trace.overhead_pct", (percentile(tracedLat, 50)/percentile(plainLat, 50)-1)*100)
	execute := r.rec.medianUS("serve.Backend.Query")
	r.set("serve.execute_us_per_request", execute)
	r.mark("open loop")
	r.set("serve.max_rps", r.climb(tg))
	r.mark("rate ladder")
	if err := r.serveLayers(b, reqs, percentile(plainLat, 50), execute); err != nil {
		return err
	}
	r.mark("layer probes")
	err = r.checkServe(reqs, append(plain, traced...))
	r.mark("answer check")
	return err
}

// timedBackend records a span around every Query the service makes of its
// backend while serving the open loop.
type timedBackend struct {
	serve.Backend
	rec *recorder
}

func (b timedBackend) Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*serve.Answer, error) {
	sp := b.rec.start("serve.Backend.Query", 0)
	defer sp.end()
	return b.Backend.Query(ctx, trees, v)
}

// backend is the collection behind the service and what owns it.
type backend struct {
	backend serve.Backend
	cl      *cluster // distributed only
	addrs   []string
}

func (b *backend) close() {
	b.backend.Close()
	if b.cl != nil {
		b.cl.close()
	}
}

// openBackend performs the workload's setup several times and reports
// the median as setup_s: serve.OpenLocal (snapshot open and pin) for
// serve-local, Coordinator.LoadSnapshotContext onto two workers for
// serve-distrib.
func (r *run) openBackend() (*backend, error) {
	var secs []float64
	b := &backend{}
	if !r.w.distributed {
		for i := 0; i < r.setupReps(); i++ {
			runtime.GC()
			sp := r.rec.start("serve.OpenLocal", 0)
			loc, err := serve.OpenLocal(r.fx.local, workers)
			d := sp.end()
			if err != nil {
				return nil, fmt.Errorf("serve.OpenLocal: %w", err)
			}
			if b.backend != nil {
				b.backend.Close()
			}
			b.backend = loc
			secs = append(secs, d.Seconds())
		}
		r.set("setup_s", median(secs))
		return b, nil
	}
	cl, err := startCluster()
	if err != nil {
		return nil, err
	}
	b.cl, b.addrs = cl, cl.addrs
	for i := 0; i < r.setupReps(); i++ {
		runtime.GC()
		sp := r.rec.start("distrib.Coordinator.LoadSnapshotContext", 0)
		err := cl.coord.LoadSnapshotContext(context.Background(), r.fx.workers)
		d := sp.end()
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("LoadSnapshotContext: %w", err)
		}
		secs = append(secs, d.Seconds())
	}
	st, err := bfhsnap.Open(r.fx.workers)
	if err != nil {
		cl.close()
		return nil, err
	}
	b.backend = &serve.Distributed{Coord: cl.coord, Epoch: st.Current()}
	r.set("setup_s", median(secs))
	return b, nil
}

// server is the query service on a loopback listener.
type server struct {
	srv  *http.Server
	done chan error
	url  string
}

func startServer(b serve.Backend) (*server, error) {
	cat := serve.NewCatalog("", workers)
	if err := cat.Register(collName, b); err != nil {
		return nil, err
	}
	svc := serve.New(serve.Config{}, cat)
	mux := http.NewServeMux()
	svc.Register(mux)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1), url: "http://" + l.Addr().String() + "/v1/query"}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck — a slow drain only delays exit
	<-s.done
}

// request is one POST /v1/query body and its trees.
type request struct {
	body  []byte
	trees []string
}

// newRequests groups the query pool into bodies of requestTrees trees.
func newRequests(raws []string) ([]request, error) {
	var out []request
	for i := 0; i+requestTrees <= len(raws); i += requestTrees {
		trees := raws[i : i+requestTrees]
		body, err := json.Marshal(map[string]any{"collection": collName, "variant": "plain", "trees": trees})
		if err != nil {
			return nil, err
		}
		out = append(out, request{body: body, trees: trees})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query pool holds fewer than %d trees", requestTrees)
	}
	return out, nil
}

// target is the load generator's view of the service: an HTTP client
// limited to httpConns connections, cycling through the request pool.
type target struct {
	url    string
	reqs   []request
	tr     *http.Transport
	client *http.Client

	mu   sync.Mutex
	next int
}

func newTarget(url string, reqs []request) *target {
	tr := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true}
	return &target{url: url, reqs: reqs, tr: tr, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (tg *target) close() { tg.tr.CloseIdleConnections() }

func (tg *target) take() int {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	i := tg.next % len(tg.reqs)
	tg.next++
	return i
}

// sample is one request's fate.
type sample struct {
	req int
	// late is how far behind schedule the generator dispatched it; lat
	// runs from the scheduled send time to the last byte of the response.
	late, lat time.Duration
	status    int
	body      []byte
	err       error
}

func (tg *target) send(s *sample) {
	req, err := http.NewRequest(http.MethodPost, tg.url, bytes.NewReader(tg.reqs[s.req].body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := tg.client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	s.body, s.err = io.ReadAll(resp.Body)
}

// openLoop offers requests at a fixed rate for dur: request i is due at
// start + i/rate whether or not earlier ones have finished, and its
// latency counts from that due time, so a stall anywhere (server, the two
// connections) is charged to every request that waited behind it. With a
// recorder, each request gets a span.
func (tg *target) openLoop(rate float64, dur time.Duration, rec *recorder) []sample {
	n := max(1, int(rate*dur.Seconds()))
	out := make([]sample, n)
	period := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := range out {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := &out[i]
		s.req = tg.take()
		s.late = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec != nil {
				sp := rec.start("POST /v1/query", 0)
				defer sp.end()
			}
			tg.send(s)
			s.lat = time.Since(due)
		}()
	}
	wg.Wait()
	return out
}

// latencies returns the latencies of the successful samples and every
// sample's dispatch lateness, both in milliseconds. A failed request
// misses any latency limit, so it enters the latencies as +Inf.
func latencies(ss []sample) (lat, late []float64) {
	for _, s := range ss {
		late = append(late, ms(s.late))
		if s.err != nil || s.status != http.StatusOK {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(s.lat))
	}
	return lat, late
}

// windowed splits latencies (in due order) into windows of n requests
// and returns the median over whole windows of each window's p-th
// percentile: the typical p-th percentile of a one-second slice.
func windowed(lat []float64, n int, p float64) float64 {
	var per []float64
	for i := 0; i+n <= len(lat); i += n {
		per = append(per, percentile(lat[i:i+n], p))
	}
	if len(per) == 0 {
		return percentile(lat, p)
	}
	return median(per)
}

// countOK counts the requests answered with 200.
func countOK(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil && s.status == http.StatusOK {
			n++
		}
	}
	return n
}

// judgeGenerator marks the run invalid when the generator itself fell
// behind its schedule, so a starved client is not read as a slow server.
// Dispatch jitter is expected on a small host (it is charged to latency,
// which counts from the due time); falling behind means the median
// lateness over some one-second window exceeded lateLimit.
func (r *run) judgeGenerator(late []float64) {
	window := max(1, int(r.w.rate))
	worst := 0.0
	for i := 0; i < len(late); i += window {
		worst = math.Max(worst, median(late[i:min(i+window, len(late))]))
	}
	valid := worst <= ms(lateLimit)
	r.info["generator"] = map[string]any{"late_p99_ms": percentile(late, 99),
		"worst_window_late_p50_ms": worst, "late_limit_ms": ms(lateLimit), "valid": valid}
	if !valid {
		logf("INVALID RUN: the load generator fell behind its schedule (median lateness %.3f ms in a one-second window, limit %.3f ms); its latencies describe a starved client",
			worst, ms(lateLimit))
	}
}

// climb offers the ladder's rates in turn and returns the highest at which
// p99 stays within the workload's limit. Every request of a failing rung
// is late by construction, so climbing stops at the first one.
func (r *run) climb(tg *target) float64 {
	best := 0.0
	rung := seconds(max(1.5, r.o.seconds/float64(len(ladder))))
	if r.o.smoke {
		rung = seconds(0.3)
	}
	steps := map[string]float64{}
	for _, m := range ladder {
		rate := r.w.rate * m
		runtime.GC()
		lat, _ := latencies(tg.openLoop(rate, rung, nil))
		p99 := percentile(lat, 99)
		steps[fmt.Sprint(rate)] = p99
		if p99 > ms(r.w.limit) {
			break
		}
		best = rate
	}
	r.info["ladder_p99_ms"] = steps
	r.info["ladder_limit_ms"] = ms(r.w.limit)
	return best
}

// sampleGauge polls a gauge the program exports every millisecond until
// the returned function is called; that function returns the maximum.
func sampleGauge(name string) func() float64 {
	g := obs.Gauge(name, "")
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := g.Value()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
				peak = math.Max(peak, g.Value())
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// checkServe checks every answered request against a direct
// FreqHash.AverageRF of the same trees on the single-node epoch of the
// same reference, bit for bit. For serve-distrib that epoch is exactly
// what serve-local answers from, so the two workloads must agree.
func (r *run) checkServe(reqs []request, ss []sample) error {
	want, err := r.expected(reqs)
	if err != nil {
		return err
	}
	type answer struct {
		Results []struct {
			Index int     `json:"index"`
			AvgRF float64 `json:"avg_rf"`
		} `json:"results"`
	}
	for i, s := range ss {
		r.attempted++
		switch {
		case s.err != nil:
			r.fail("request %d: %v", i, s.err)
			continue
		case s.status != http.StatusOK:
			r.fail("request %d: HTTP %d: %s", i, s.status, bytes.TrimSpace(s.body))
			continue
		}
		var a answer
		if err := json.Unmarshal(s.body, &a); err != nil {
			r.fail("request %d: undecodable answer: %v", i, err)
			continue
		}
		exp := want[s.req]
		if len(a.Results) != len(exp) {
			r.fail("request %d: %d results for %d trees", i, len(a.Results), len(exp))
			continue
		}
		for j, res := range a.Results {
			if res.Index != j || math.Float64bits(res.AvgRF) != math.Float64bits(exp[j]) {
				r.fail("request %d (pool request %d), tree %d: service says %v, direct FreqHash.AverageRF says %v",
					i, s.req, j, res.AvgRF, exp[j])
				break
			}
		}
	}
	return nil
}

// expected computes every pool request's answers with FreqHash.AverageRF
// on the pinned single-node epoch.
func (r *run) expected(reqs []request) ([][]float64, error) {
	st, err := bfhsnap.Open(r.fx.local)
	if err != nil {
		return nil, err
	}
	e, err := st.Pin()
	if err != nil {
		return nil, err
	}
	defer e.Release()
	out := make([][]float64, len(reqs))
	for i, q := range reqs {
		trees, err := parseTrees(q.trees)
		if err != nil {
			return nil, err
		}
		res, err := e.Hash.AverageRF(collection.FromTrees(trees), core.QueryOptions{Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("direct query of pool request %d: %w", i, err)
		}
		out[i] = make([]float64, len(res))
		for j, x := range res {
			out[i][j] = x.AvgRF
		}
	}
	return out, nil
}

func parseTrees(raws []string) ([]*tree.Tree, error) {
	trees := make([]*tree.Tree, len(raws))
	for i, s := range raws {
		t, err := newick.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("query tree %d: %w", i, err)
		}
		trees[i] = t
	}
	return trees, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
