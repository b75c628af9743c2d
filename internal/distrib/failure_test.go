package distrib

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/obs"
)

// Coordinator failure paths: a worker that is unreachable, dies mid-query,
// or answers garbage must surface an error (the CLI turns that into a
// non-zero exit) plus an obs error-counter increment — never a hang. The
// metrics live in the shared Default registry, so assertions are deltas.

func coordErrors(method, worker string) *obs.CounterMetric {
	return rpcErrors(obs.L("side", sideCoordinator), obs.L("method", method), obs.L("worker", worker))
}

// runWithTimeout fails the test if fn does not return within 30 seconds —
// the "not a hang" half of each failure-path contract.
func runWithTimeout(t *testing.T, name string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s hung", name)
		return nil
	}
}

func TestWorkerUnreachableAtDial(t *testing.T) {
	// Reserve a port and close it so nothing is listening.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	before := coordErrors("Dial", addr).Value()
	_, err = Dial([]string{addr})
	if err == nil {
		t.Fatal("dialing a dead worker should fail")
	}
	if got := coordErrors("Dial", addr).Value() - before; got != 1 {
		t.Errorf("dial error counter delta = %d, want 1", got)
	}
}

func TestWorkerUnreachableAtLoad(t *testing.T) {
	// The worker accepts the connection, then dies before the coordinator
	// sends Init: the first Load-phase RPC must error out.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	var conns []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	defer l.Close()

	coord, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Kill the accepted connection: the worker is now gone.
	l.Close()
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	trees, ts := testCollection(3, 8, 10)
	before := coordErrors("Init", addr).Value()
	err = runWithTimeout(t, "Load", func() error {
		return coord.Load(collection.FromTrees(trees), ts, false)
	})
	if err == nil {
		t.Fatal("Load against a dead worker should fail")
	}
	if got := coordErrors("Init", addr).Value() - before; got != 1 {
		t.Errorf("Init error counter delta = %d, want 1", got)
	}
}

// killableWorker serves a real Worker but keeps handles on accepted
// connections so the test can sever them mid-run.
type killableWorker struct {
	l     net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func startKillableWorker(t *testing.T) *killableWorker {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kw := &killableWorker{l: l}
	srv := rpc.NewServer()
	if err := srv.RegisterName("BFHRF", &Worker{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			kw.mu.Lock()
			kw.conns = append(kw.conns, conn)
			kw.mu.Unlock()
			go srv.ServeConn(conn)
		}
	}()
	t.Cleanup(kw.kill)
	return kw
}

func (kw *killableWorker) addr() string { return kw.l.Addr().String() }

// kill severs the listener and every live connection.
func (kw *killableWorker) kill() {
	kw.l.Close()
	kw.mu.Lock()
	defer kw.mu.Unlock()
	for _, c := range kw.conns {
		c.Close()
	}
	kw.conns = nil
}

// TestWorkerDiesMidQueryNoFailover pins the pre-failover contract for
// clusters that opt out of recovery: a worker dying mid-query surfaces an
// error (never a hang) plus an error-counter increment.
func TestWorkerDiesMidQueryNoFailover(t *testing.T) {
	kw := startKillableWorker(t)
	healthy := startWorkers(t, 1)
	addrs := []string{kw.addr(), healthy[0]}

	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.NoFailover = true
	trees, ts := testCollection(7, 10, 30)
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	// First batch succeeds while both workers live.
	if _, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:2])); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	kw.kill()
	before := coordErrors("Query", kw.addr()).Value()
	err = runWithTimeout(t, "AverageRF", func() error {
		_, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:4]))
		return err
	})
	if err == nil {
		t.Fatal("query against a dead worker should fail with failover disabled")
	}
	if got := coordErrors("Query", kw.addr()).Value() - before; got == 0 {
		t.Error("Query error counter did not increment")
	}
}

// malformedService mimics the BFHRF wire protocol but returns a hit
// vector of the wrong length for non-empty query batches.
type malformedService struct {
	mu    sync.Mutex
	trees int
}

func (s *malformedService) Init(args InitArgs, reply *LoadReply) error {
	*reply = LoadReply{}
	return nil
}

func (s *malformedService) Load(args LoadArgs, reply *LoadReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trees += len(args.Ends)
	reply.ShardTrees = s.trees
	reply.ShardUnique = 1
	return nil
}

func (s *malformedService) Query(args QueryArgs, reply *QueryReply) error {
	s.mu.Lock()
	trees := s.trees
	s.mu.Unlock()
	reply.Protocol = Protocol
	if len(args.Ends) == 0 {
		// Behave during the Load-phase probe so the failure surfaces in
		// the query phase.
		reply.ShardSum = 1
		reply.ShardTrees = trees
		return nil
	}
	reply.Hits = make([]int64, len(args.Ends)+1) // wrong length
	reply.ShardSum = 1
	reply.ShardTrees = trees
	return nil
}

func TestMalformedRPCResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName("BFHRF", &malformedService{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	addr := l.Addr().String()

	coord, err := Dial([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// The fake service speaks only the load/query half of the protocol, so
	// skip the post-load snapshot checkpoint.
	coord.NoFailover = true
	trees, ts := testCollection(13, 8, 6)
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatalf("load against malformed service: %v", err)
	}

	before := protocolErrors(addr).Value()
	err = runWithTimeout(t, "AverageRF", func() error {
		_, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:3]))
		return err
	})
	if err == nil {
		t.Fatal("malformed reply should fail the query")
	}
	if !strings.Contains(err.Error(), "hits") {
		t.Errorf("error should describe the malformed reply, got: %v", err)
	}
	if got := protocolErrors(addr).Value() - before; got != 1 {
		t.Errorf("protocol error counter delta = %d, want 1", got)
	}
}

// TestCoordinatorPerWorkerMetrics is the in-process distributed end-to-end
// check: after a real scatter-gather run over TCP, every worker shows up
// in the coordinator-side per-worker latency series, and the worker-side
// core counters reflect the answered queries.
func TestCoordinatorPerWorkerMetrics(t *testing.T) {
	addrs := startWorkers(t, 2)
	queryLat := func(addr string) *obs.HistogramMetric {
		return rpcLatency(obs.L("side", sideCoordinator), obs.L("method", "Query"), obs.L("worker", addr))
	}
	loadLat := func(addr string) *obs.HistogramMetric {
		return rpcLatency(obs.L("side", sideCoordinator), obs.L("method", "Load"), obs.L("worker", addr))
	}
	befQuery := make([]uint64, 2)
	befLoad := make([]uint64, 2)
	for i, a := range addrs {
		befQuery[i] = queryLat(a).Count()
		befLoad[i] = loadLat(a).Count()
	}
	wrkQueryBefore := rpcLatency(obs.L("side", sideWorker), obs.L("method", "Query")).Count()
	bytesBefore := rpcBytes(sideCoordinator, "written").Value()

	coord, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.ChunkSize = 5
	coord.BatchSize = 4
	trees, ts := testCollection(31, 10, 20)
	if err := coord.Load(collection.FromTrees(trees), ts, false); err != nil {
		t.Fatal(err)
	}
	res, err := coord.AverageRFContext(context.Background(), collection.FromTrees(trees[:9]))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 9 {
		t.Fatalf("results = %d, want 9", len(res.Results))
	}

	for i, a := range addrs {
		// 9 queries at batch size 4 = 3 batches, plus the load probe.
		if got := queryLat(a).Count() - befQuery[i]; got != 4 {
			t.Errorf("worker %s Query latency count delta = %d, want 4", a, got)
		}
		// 20 trees at chunk 5 = 4 chunks round-robin over 2 workers.
		if got := loadLat(a).Count() - befLoad[i]; got != 2 {
			t.Errorf("worker %s Load latency count delta = %d, want 2", a, got)
		}
	}
	// The workers run in-process here, so their side of the series moved
	// too: 2 workers × (3 batches + 1 probe).
	if got := rpcLatency(obs.L("side", sideWorker), obs.L("method", "Query")).Count() - wrkQueryBefore; got != 8 {
		t.Errorf("worker-side Query latency count delta = %d, want 8", got)
	}
	if got := rpcBytes(sideCoordinator, "written").Value() - bytesBefore; got == 0 {
		t.Error("coordinator written-bytes counter did not move")
	}
	// Sanity: every per-worker series is visible in the exposition with
	// its worker label, the operator-facing contract.
	var sb strings.Builder
	if err := obs.Default.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if !strings.Contains(sb.String(), fmt.Sprintf(`worker="%s"`, a)) {
			t.Errorf("exposition missing worker label %q", a)
		}
	}
}
