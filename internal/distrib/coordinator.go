package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"repro/internal/bfhsnap"
	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/taxa"
)

// workerSlot is the coordinator's book-keeping for one worker: its
// connection, the coordinator's health verdict, and the post-load shard
// checkpoint that makes failover possible without re-shipping trees.
type workerSlot struct {
	addr   string
	client *rpc.Client
	state  WorkerState
	// fails counts consecutive health-check failures (see health.go).
	fails int
	// trees is the shard's reference tree count, fixed by Load's probe.
	trees int
	// snapshot is the shard checkpoint taken after Load (nil for empty
	// shards and when failover is disabled).
	snapshot []byte
	// orphaned marks a dead worker whose non-empty shard has not been
	// re-homed yet.
	orphaned bool
}

// Coordinator shards a reference collection across workers and answers
// average-RF queries by scatter-gather. It tolerates worker failure: RPCs
// carry deadlines, transient errors are retried with backoff, and a dead
// worker's shard is re-dispatched to a healthy worker from the post-load
// checkpoint (or, with PartialResults, the query degrades and reports its
// coverage).
type Coordinator struct {
	mu    sync.Mutex
	slots []*workerSlot
	taxa  *taxa.Set
	// sum and r are the folded global totals, fixed after Load.
	sum uint64
	r   int
	// digest is the wrapping sum of every reference bipartition's mask
	// hash: the collection's content, independent of tree order and of
	// how the trees are sharded. fp is the reference-collection
	// fingerprint. Both are fixed after Load (see Fingerprint).
	digest uint64
	fp     uint64
	// ChunkSize is the number of reference trees per Load RPC (default 512).
	ChunkSize int
	// BatchSize is the number of query trees per Query RPC (default 256).
	BatchSize int
	// Backend selects every shard's hash engine (BackendAuto by default).
	Backend core.Backend
	// HashShards overrides each shard's open-addressing internal shard
	// count (0 = worker default).
	HashShards int

	// RPCTimeout is the per-RPC deadline. On expiry the connection is
	// considered poisoned (net/rpc cannot cancel an in-flight call), the
	// call fails with a transient error and is retried on a fresh dial.
	// 0 means no deadline.
	RPCTimeout time.Duration
	// Retry bounds the backoff loop around every RPC. The zero value
	// means a single attempt.
	Retry RetryPolicy
	// PartialResults selects the degraded-results policy: instead of
	// re-dispatching a dead worker's shard (fail-fast mode, the default),
	// answer from the shards that responded and report the coverage in
	// the Outcome and in bfhrf_query_shard_coverage.
	PartialResults bool
	// NoFailover disables shard re-dispatch and post-load checkpoints; a
	// dead worker then fails the query (unless PartialResults is set).
	NoFailover bool
	// DeadAfter is the number of consecutive health-check failures after
	// which the health loop declares a worker dead (default 3). The first
	// failure marks it suspect.
	DeadAfter int
	// Cache, when set, is the coordinator-side topology-fingerprint result
	// cache: each query tree is fingerprinted before scatter, an exact
	// topological repeat of an earlier full-coverage answer is emitted
	// without touching any worker, and repeats within one batch are
	// deduplicated so only distinct topologies go over the wire. Results
	// from degraded (coverage < 1) batches are never cached.
	Cache *core.QueryCache

	// runs recycles the *runScratch of query runs, which serve issues
	// concurrently.
	runs sync.Pool
}

// runScratch is one query run's reusable state: the extractor that
// reduces each query tree to splits once, and the wire batch.
type runScratch struct {
	ex    *bipart.Extractor
	batch QueryArgs
}

// scratch takes a run's scratch from the pool, fresh when the pool is
// empty or its extractor predates the current catalogue; put it back
// once the run is done.
func (c *Coordinator) scratch() *runScratch {
	if sc, ok := c.runs.Get().(*runScratch); ok && sc.ex.Taxa == c.taxa {
		sc.batch.Words, sc.batch.Ends = sc.batch.Words[:0], sc.batch.Ends[:0]
		return sc
	}
	return &runScratch{ex: &bipart.Extractor{Taxa: c.taxa, RequireComplete: true, ReuseMasks: true}}
}

// Outcome is the result of one AverageRF run plus its fault-tolerance
// annotations.
type Outcome struct {
	// Results are the per-query averages, in query order.
	Results []core.Result
	// Coverage is the minimum, over query batches, of the fraction of
	// reference trees whose shards answered. 1 means every result is
	// exact; lower values only occur with PartialResults.
	Coverage float64
	// Partial reports whether any batch was answered from a strict
	// subset of the shards.
	Partial bool
	// Failovers counts shards successfully re-dispatched during the run.
	Failovers int
	// DeadWorkers lists addresses declared dead during the run.
	DeadWorkers []string
}

// Dial connects to worker addresses ("host:port"). Each address is tried
// once; wrap Dial in Do with a RetryPolicy to ride out workers that are
// still starting.
func Dial(addrs []string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("distrib: no worker addresses")
	}
	c := &Coordinator{ChunkSize: 512, BatchSize: 256}
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			rpcErrors(obs.L("side", sideCoordinator), obs.L("method", "Dial"), obs.L("worker", addr)).Inc()
			c.Close()
			return nil, fmt.Errorf("distrib: dialing %s: %w", addr, err)
		}
		c.slots = append(c.slots, &workerSlot{
			addr:   addr,
			client: rpc.NewClient(meterConn(conn, sideCoordinator)),
		})
		workerStateGauge(addr).Set(float64(StateHealthy))
	}
	slog.Debug("coordinator connected", "workers", len(c.slots))
	return c, nil
}

// Close releases every worker connection.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, s := range c.slots {
		if s.client != nil {
			if err := s.client.Close(); err != nil && first == nil {
				first = err
			}
			s.client = nil
		}
	}
	c.slots = nil
	return first
}

// NumWorkers returns the number of dialed shards, dead or alive.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// AliveWorkers returns how many workers are not declared dead.
func (c *Coordinator) AliveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.slots {
		if s.state != StateDead {
			n++
		}
	}
	return n
}

// Addrs returns the dialed worker addresses.
func (c *Coordinator) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, len(c.slots))
	for i, s := range c.slots {
		addrs[i] = s.addr
	}
	return addrs
}

// slot returns the i-th worker slot (stable for the coordinator's life).
func (c *Coordinator) slot(i int) *workerSlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots[i]
}

// clientOf returns a live client for worker i, redialing if the previous
// connection was poisoned. Fails fast on workers already declared dead.
func (c *Coordinator) clientOf(i int) (*rpc.Client, error) {
	c.mu.Lock()
	s := c.slots[i]
	if s.state == StateDead {
		c.mu.Unlock()
		return nil, fmt.Errorf("distrib: %s: %w", s.addr, errWorkerDead)
	}
	if cl := s.client; cl != nil {
		c.mu.Unlock()
		return cl, nil
	}
	addr := s.addr
	c.mu.Unlock()

	var conn net.Conn
	var err error
	if c.RPCTimeout > 0 {
		conn, err = net.DialTimeout("tcp", addr, c.RPCTimeout)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		rpcErrors(obs.L("side", sideCoordinator), obs.L("method", "Dial"), obs.L("worker", addr)).Inc()
		return nil, fmt.Errorf("distrib: redialing %s: %w", addr, err)
	}
	cl := rpc.NewClient(meterConn(conn, sideCoordinator))
	c.mu.Lock()
	if s.client == nil {
		s.client = cl
	} else {
		// A concurrent caller redialed first; use theirs.
		cl.Close()
		cl = s.client
	}
	c.mu.Unlock()
	slog.Debug("worker redialed", "worker", addr)
	return cl, nil
}

// invalidate drops a poisoned client so the next attempt redials.
func (c *Coordinator) invalidate(i int, cl *rpc.Client) {
	c.mu.Lock()
	s := c.slots[i]
	if s.client == cl {
		s.client = nil
	}
	c.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// callOnce executes one RPC against worker i with full instrumentation:
// per-worker latency histogram, error counter, in-flight gauge, and the
// per-RPC deadline. On deadline expiry or context cancellation the
// connection is closed — net/rpc cannot abandon a single in-flight call —
// so the retry layer redials.
func (c *Coordinator) callOnce(ctx context.Context, i int, method string, args, reply any) error {
	if ferr := faultinject.Hit(faultinject.PointRPCSend); ferr != nil {
		// An injected send fault stands in for a network failure before the
		// bytes leave the coordinator. Transient plans wrap
		// io.ErrUnexpectedEOF, so IsTransient routes them through the same
		// retry/failover machinery a real severed connection takes.
		addr := c.slot(i).addr
		rpcErrors(obs.L("side", sideCoordinator), obs.L("method", method), obs.L("worker", addr)).Inc()
		return fmt.Errorf("distrib: %s to %s: %w", method, addr, ferr)
	}
	cl, err := c.clientOf(i)
	if err != nil {
		return err
	}
	addr := c.slot(i).addr
	inflight := rpcInflight(sideCoordinator)
	inflight.Inc()
	start := time.Now()

	call := cl.Go("BFHRF."+method, args, reply, make(chan *rpc.Call, 1))
	var timeout <-chan time.Time
	if c.RPCTimeout > 0 {
		t := time.NewTimer(c.RPCTimeout)
		defer t.Stop()
		timeout = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-call.Done:
		err = call.Error
	case <-timeout:
		c.invalidate(i, cl)
		err = fmt.Errorf("distrib: %s to %s after %v: %w", method, addr, c.RPCTimeout, errRPCTimeout)
	case <-done:
		c.invalidate(i, cl)
		err = ctx.Err()
	}

	rpcLatency(obs.L("side", sideCoordinator), obs.L("method", method), obs.L("worker", addr)).
		Observe(time.Since(start).Seconds())
	if err != nil {
		rpcErrors(obs.L("side", sideCoordinator), obs.L("method", method), obs.L("worker", addr)).Inc()
	}
	inflight.Dec()
	return err
}

// call executes one RPC against worker i with retry-on-transient: each
// failed attempt drops the (possibly poisoned) connection so the next
// attempt redials the worker.
func (c *Coordinator) call(ctx context.Context, i int, method string, args, reply any) error {
	addr := c.slot(i).addr
	return Do(ctx, c.Retry,
		func(retry int, err error) {
			rpcRetries(method, addr).Inc()
			// Do invokes the hook in the calling goroutine, which is the
			// goroutine that started the span in ctx (if any) — so SetAttr's
			// owner-only rule holds. Last write wins: the attribute ends up
			// as the total retry count.
			obs.SpanFromContext(ctx).SetAttr("retries", retry+1)
			slog.Debug("retrying rpc", "method", method, "worker", addr, "retry", retry+1, "error", err)
		},
		func() error {
			err := c.callOnce(ctx, i, method, args, reply)
			if err != nil && IsTransient(err) {
				c.mu.Lock()
				cl := c.slots[i].client
				c.mu.Unlock()
				c.invalidate(i, cl)
			}
			return err
		})
}

// markDead declares worker i unrecoverable: its connection is dropped,
// bfhrf_worker_state flips to 2, and a non-empty shard becomes an orphan
// awaiting failover.
func (c *Coordinator) markDead(i int, cause error) {
	c.mu.Lock()
	s := c.slots[i]
	alreadyDead := s.state == StateDead
	s.state = StateDead
	if s.trees > 0 {
		s.orphaned = true
	}
	cl := s.client
	s.client = nil
	c.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
	if !alreadyDead {
		workerStateGauge(s.addr).Set(float64(StateDead))
		slog.Warn("worker declared dead", "worker", s.addr, "shard_trees", s.trees, "cause", cause)
	}
}

// liveIndexes snapshots the indexes of workers not declared dead.
func (c *Coordinator) liveIndexes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []int
	for i, s := range c.slots {
		if s.state != StateDead {
			live = append(live, i)
		}
	}
	return live
}

// Load initializes every worker with the catalogue and distributes the
// reference collection round-robin in chunks. It must be called once
// before Query. compress selects the succinct backend — the §IX
// compressed keys — on every shard, overriding c.Backend.
func (c *Coordinator) Load(refs collection.Source, ts *taxa.Set, compress bool) error {
	return c.LoadContext(context.Background(), refs, ts, compress)
}

// LoadContext is Load with cancellation: ctx bounds every RPC of the load
// phase. A worker failure during load is fatal — failover only covers the
// query phase, because a half-loaded shard has no checkpoint to re-home.
func (c *Coordinator) LoadContext(ctx context.Context, refs collection.Source, ts *taxa.Set, compress bool) error {
	if c.NumWorkers() == 0 {
		return fmt.Errorf("distrib: no workers")
	}
	ctx, span := obs.StartSpan(ctx, "coord.load")
	defer span.End()
	c.taxa = ts
	backend := c.Backend
	if compress {
		backend = core.BackendSuccinct
	}
	init := InitArgs{
		TaxaNames:  ts.Names(),
		Backend:    backend.String(),
		HashShards: c.HashShards,
		Protocol:   Protocol,
	}
	n := c.NumWorkers()
	for i := 0; i < n; i++ {
		var reply LoadReply
		if err := c.call(ctx, i, "Init", init, &reply); err != nil {
			return fmt.Errorf("distrib: init worker %d: %w", i, err)
		}
	}
	rd, err := collection.NewReader(refs)
	if err != nil {
		return err
	}
	// Each reference tree is extracted once, here — from a file's raw
	// statements, with no tree built; workers fold the shipped splits with
	// no parse and no extraction. The chunk copies the words, so the
	// extractor can recycle its masks.
	ex := &bipart.Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	var chunk LoadArgs
	target := 0
	flush := func() error {
		if len(chunk.Ends) == 0 {
			return nil
		}
		chunk.Seq++
		var reply LoadReply
		if err := c.call(ctx, target, "Load", chunk, &reply); err != nil {
			return fmt.Errorf("distrib: load worker %d: %w", target, err)
		}
		slog.Debug("chunk distributed", "worker", c.slot(target).addr,
			"chunk", len(chunk.Ends), "shard_trees", reply.ShardTrees, "shard_unique", reply.ShardUnique)
		target = (target + 1) % n
		chunk.Words, chunk.Ends = chunk.Words[:0], chunk.Ends[:0]
		chunk.Lengths, chunk.HasLength = chunk.Lengths[:0], chunk.HasLength[:0]
		return nil
	}
	total := 0
	c.digest = 0
	for {
		it, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		bs, err := it.Splits(ex)
		if err != nil {
			return fmt.Errorf("distrib: reference tree %d: %w", total, err)
		}
		chunk.add(bs)
		for _, b := range bs {
			c.digest += b.Hash()
		}
		total++
		if len(chunk.Ends) >= c.chunkSize() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("distrib: reference collection is empty")
	}
	if err := c.probeTotals(ctx); err != nil {
		return err
	}
	if c.r != total {
		return fmt.Errorf("distrib: workers report %d trees, loaded %d", c.r, total)
	}
	c.fp = fingerprint(ts, c.r, c.sum, c.digest)
	if err := c.checkpoint(ctx, nil); err != nil {
		return err
	}
	slog.Info("references loaded", "trees", total, "workers", n, "sum", c.sum)
	return nil
}

// probeTotals folds the global totals with an empty query on every
// worker and remembers each shard's size — the denominator of the
// coverage arithmetic. It doubles as the protocol check: a worker whose
// reply carries another wire version is refused by name, before any
// query could be answered wrongly.
func (c *Coordinator) probeTotals(ctx context.Context) error {
	c.sum, c.r = 0, 0
	for i := 0; i < c.NumWorkers(); i++ {
		var reply QueryReply
		if err := c.call(ctx, i, "Query", QueryArgs{}, &reply); err != nil {
			return fmt.Errorf("distrib: probing worker %d: %w", i, err)
		}
		s := c.slot(i)
		if reply.Protocol != Protocol {
			protocolErrors(s.addr).Inc()
			return fmt.Errorf("distrib: worker %d (%s) speaks wire protocol %d, coordinator %d",
				i, s.addr, reply.Protocol, Protocol)
		}
		c.sum += reply.ShardSum
		c.r += reply.ShardTrees
		s.trees = reply.ShardTrees
	}
	return nil
}

// checkpoint snapshots every non-empty shard so a dead worker's partition
// can be re-dispatched without re-shipping or re-parsing reference trees.
// have[i], when set, is worker i's shard already serialized (the part
// file a snapshot load restored it from) and is kept without a Snapshot
// RPC; have may be nil. Skipped when failover is disabled.
func (c *Coordinator) checkpoint(ctx context.Context, have [][]byte) error {
	if c.NoFailover {
		return nil
	}
	n := c.NumWorkers()
	for i := 0; i < n; i++ {
		s := c.slot(i)
		if s.trees == 0 {
			continue // an empty shard needs no failover
		}
		var data []byte
		if i < len(have) {
			data = have[i]
		}
		if data == nil {
			var reply SnapshotReply
			if err := c.call(ctx, i, "Snapshot", SnapshotArgs{}, &reply); err != nil {
				return fmt.Errorf("distrib: checkpointing worker %d: %w", i, err)
			}
			data = reply.Data
		}
		c.mu.Lock()
		s.snapshot = data
		c.mu.Unlock()
		slog.Debug("shard checkpointed", "worker", s.addr, "bytes", len(data), "trees", s.trees)
	}
	return nil
}

func (c *Coordinator) chunkSize() int {
	if c.ChunkSize <= 0 {
		return 512
	}
	return c.ChunkSize
}

func (c *Coordinator) batchSize() int {
	if c.BatchSize <= 0 {
		return 256
	}
	return c.BatchSize
}

// Fingerprint identifies the loaded reference collection: an FNV-1a hash
// over the taxon catalogue, the tree count, the folded bipartition mass
// and the bipartition content digest. (Tree count and mass alone cannot
// tell two collections of binary trees on the same taxa apart: every
// such tree has n-3 splits.) Valid after Load; resumable runs store it
// in their checkpoint header so a checkpoint can never silently resume
// against different references. (The local core.FreqHash fingerprint also folds in the
// global unique-bipartition count, which shards cannot provide, so the
// two schemes are deliberately distinct: a single-node checkpoint does
// not resume a distributed run, or vice versa.)
func (c *Coordinator) Fingerprint() uint64 { return c.fp }

// RefTrees is the number of reference trees loaded across all shards.
// Valid after Load.
func (c *Coordinator) RefTrees() int { return c.r }

// TaxaLen is the size of the shared taxon catalogue. Valid after Load.
func (c *Coordinator) TaxaLen() int {
	if c.taxa == nil {
		return 0
	}
	return c.taxa.Len()
}

// fingerprint folds the collection's identity. A zero digest is not
// mixed in, so worker-layout epochs written before the digest existed
// keep the fingerprint their MANIFEST declares.
func fingerprint(ts *taxa.Set, trees int, sum, digest uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	fp := uint64(offset64)
	mix := func(b byte) { fp = (fp ^ uint64(b)) * prime64 }
	mixU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	for i := 0; i < ts.Len(); i++ {
		for _, b := range []byte(ts.Name(i)) {
			mix(b)
		}
		mix(0)
	}
	mixU64(uint64(trees))
	mixU64(sum)
	if digest != 0 {
		mixU64(digest)
	}
	return fp
}

// QueryRunOptions configure one scatter-gather run for resumable
// operation; the zero value is a plain full run.
type QueryRunOptions struct {
	// Skip, when non-nil, is consulted per query tree (by 0-based index in
	// the query collection); true drops it from the batches. Results for
	// skipped trees are absent from the Outcome.
	Skip func(idx int) bool
	// OnResult, when non-nil, observes each result as it is produced —
	// the checkpointing hook. Called from a single goroutine, but not
	// necessarily in query order: with a coordinator cache, a repeated
	// topology's result is emitted before earlier in-flight batches fold.
	// The Outcome's Results slice is always sorted by query index.
	OnResult func(core.Result)
	// Cancel, when closed, stops the run after the current batch without
	// aborting in-flight RPCs (bfhrfd's soft drain): the results so far
	// return with an error wrapping context.Canceled.
	Cancel <-chan struct{}
}

// AverageRFContext streams the query collection under ctx, fanning each
// batch out to every worker and folding the partial sums, and returns the
// results in query order together with their fault-tolerance
// annotations: achieved shard coverage, whether any batch was partial,
// and which workers were lost along the way.
func (c *Coordinator) AverageRFContext(ctx context.Context, queries collection.Source) (*Outcome, error) {
	return c.AverageRFOpts(ctx, queries, QueryRunOptions{})
}

// AverageRFOpts is AverageRFContext with per-query skip, result streaming
// and a soft drain — the hooks crash-safe resumable runs build on. Each
// result's Index is its position in the query collection, so a run that
// skips trees still reports stable indexes. Like run.Cancel, an ended ctx
// stops the feed before the next batch.
func (c *Coordinator) AverageRFOpts(ctx context.Context, queries collection.Source, run QueryRunOptions) (*Outcome, error) {
	if c.r == 0 || c.taxa == nil {
		return nil, fmt.Errorf("distrib: Load before Query")
	}
	// The root span rides the run's context, so cancellation and trace
	// identity travel together through queryBatch into every RPC.
	ctx, span := obs.StartSpan(ctx, "coord.query")
	defer span.End()
	if span.Recorded() {
		span.SetAttr("fingerprint", fmt.Sprintf("%016x", c.fp))
		span.SetAttr("workers", c.NumWorkers())
		span.SetAttr("cache", c.Cache != nil)
	}
	rd, err := collection.NewReader(queries)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Coverage: 1}
	deadBefore := c.deadAddrs()
	emit := func(r core.Result) {
		if run.OnResult != nil {
			run.OnResult(r)
		}
		out.Results = append(out.Results, r)
	}
	// Each query tree is extracted once, here: the splits go on the wire
	// and, with the cache on, into the topology fingerprint. The batch
	// copies the words, so the extractor can recycle its masks. A tree
	// the catalogue cannot take, or a raw statement that does not parse,
	// is the caller's input error.
	sc := c.scratch()
	defer c.runs.Put(sc)
	ex, batch := sc.ex, &sc.batch
	// With the cache on, a batch ships only distinct topologies: batch
	// holds them and uniqKey their fingerprints, and each pending query
	// records which batch slot answers it.
	uniqKey := make([]core.TopoKey, 0, c.batchSize())
	uniqAt := make(map[core.TopoKey]int, c.batchSize())
	type pendingQuery struct {
		orig int
		pos  int // index into the batch
	}
	pend := make([]pendingQuery, 0, c.batchSize())
	idx := 0
	var stopped error
	cacheHits := 0
	defer func() {
		if span.Recorded() {
			span.SetAttr("queries", idx)
			span.SetAttr("cache_hits", cacheHits)
		}
	}()
	flush := func() error {
		if len(batch.Ends) == 0 {
			return nil
		}
		bctx, bspan := obs.StartSpan(ctx, "coord.query.batch")
		bspan.SetAttr("batch", len(batch.Ends))
		bspan.SetAttr("pending", len(pend))
		avgs, coverage, err := c.queryBatch(bctx, batch, out)
		bspan.SetAttr("coverage", coverage)
		bspan.End()
		if err != nil {
			return err
		}
		for _, p := range pend {
			emit(core.Result{Index: p.orig, AvgRF: avgs[p.pos]})
		}
		if c.Cache != nil && coverage >= 1 {
			for u, k := range uniqKey {
				c.Cache.Put(k, core.Plain, avgs[u])
			}
		}
		batch.Words, batch.Ends = batch.Words[:0], batch.Ends[:0]
		uniqKey = uniqKey[:0]
		clear(uniqAt)
		pend = pend[:0]
		return nil
	}
	done := ctx.Done()
	for stopped == nil {
		select {
		case <-run.Cancel:
			stopped = context.Canceled
			continue
		case <-done:
			stopped = ctx.Err()
			continue
		default:
		}
		it, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if run.Skip != nil && run.Skip(idx) {
			idx++
			continue
		}
		bs, err := it.Splits(ex)
		if err != nil {
			return nil, &InputError{Index: idx, Err: err}
		}
		u := -1
		var key core.TopoKey
		if c.Cache != nil {
			key = core.TopologyFingerprint(bs)
			if avg, hit := c.Cache.Get(key, core.Plain); hit {
				cacheHits++
				emit(core.Result{Index: idx, AvgRF: avg})
				idx++
				continue
			}
			if at, dup := uniqAt[key]; dup {
				u = at
			}
		}
		if u < 0 {
			u = len(batch.Ends)
			batch.add(bs)
			if c.Cache != nil {
				uniqKey = append(uniqKey, key)
				uniqAt[key] = u
			}
		}
		pend = append(pend, pendingQuery{orig: idx, pos: u})
		idx++
		// The batch fills by pending queries, not distinct topologies
		// (the batch never outgrows pend): a repeat-heavy stream that
		// batched by distinct topologies alone would never flush,
		// withholding every cache insert — and so every hit — until EOF.
		// Duplicate appends count too, which is why the dup branch above
		// falls through to here.
		if len(pend) >= c.batchSize() {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].Index < out.Results[j].Index })
	out.DeadWorkers = diffAddrs(c.deadAddrs(), deadBefore)
	if stopped != nil {
		return out, fmt.Errorf("distrib: query run stopped: %w", stopped)
	}
	return out, nil
}

// InputError reports a query tree the coordinator cannot reduce to splits
// over the loaded catalogue — an unknown or duplicate taxon, a tree that
// does not cover the catalogue, or a raw statement that does not parse.
// It is the caller's input, not a worker or transport fault (serve
// answers it with 400).
type InputError struct {
	// Index is the tree's position in the query collection.
	Index int
	Err   error
}

func (e *InputError) Error() string { return fmt.Sprintf("distrib: query tree %d: %v", e.Index, e.Err) }

// Unwrap exposes the extraction error for errors.Is/As.
func (e *InputError) Unwrap() error { return e.Err }

// deadAddrs lists workers currently declared dead.
func (c *Coordinator) deadAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dead []string
	for _, s := range c.slots {
		if s.state == StateDead {
			dead = append(dead, s.addr)
		}
	}
	return dead
}

func diffAddrs(now, before []string) []string {
	seen := make(map[string]bool, len(before))
	for _, a := range before {
		seen[a] = true
	}
	var diff []string
	for _, a := range now {
		if !seen[a] {
			diff = append(diff, a)
		}
	}
	return diff
}

// queryBatch scatter-gathers one batch across the live workers and
// returns the per-query averages plus the batch's shard coverage (1 for
// exact answers). Transient worker failures are retried (see call); a
// worker that stays unreachable is declared dead and, in fail-fast mode,
// its shard is re-dispatched from the checkpoint and the batch is retried
// on the new topology. With PartialResults the batch instead folds
// whatever answered and records the coverage.
func (c *Coordinator) queryBatch(ctx context.Context, batch *QueryArgs, out *Outcome) ([]float64, float64, error) {
	for round := 0; ; round++ {
		if round > c.NumWorkers() {
			return nil, 0, fmt.Errorf("distrib: failover did not converge after %d rounds", round)
		}
		// Re-home shards orphaned by earlier batches or the health loop
		// before scattering, so the fold sees full coverage.
		if !c.PartialResults && !c.NoFailover {
			if err := c.rehomeOrphans(ctx, out); err != nil {
				return nil, 0, err
			}
		}
		live := c.liveIndexes()
		if len(live) == 0 {
			return nil, 0, fmt.Errorf("distrib: no live workers")
		}

		parts := make([]queryPart, len(live))
		var wg sync.WaitGroup
		for k, i := range live {
			parts[k].idx = i
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				// One span per worker RPC, owned by this goroutine; the
				// trace context rides the args so the worker's spans stitch
				// in, and they come back in the reply.
				qctx, qspan := obs.StartSpan(ctx, "rpc.query")
				qspan.SetAttr("worker", c.slot(i).addr)
				args := *batch
				args.Trace = toTraceContext(obs.SpanContextFrom(qctx))
				parts[k].err = c.call(qctx, i, "Query", args, &parts[k].reply)
				if parts[k].err != nil {
					qspan.SetAttr("error", parts[k].err.Error())
				} else {
					obs.AttachSpans(qctx, parts[k].reply.Spans)
				}
				qspan.End()
			}(k, i)
		}
		wg.Wait()

		var answered []queryPart
		lost := false
		for _, p := range parts {
			switch {
			case p.err == nil:
				answered = append(answered, p)
			case errors.Is(p.err, context.Canceled) || errors.Is(p.err, context.DeadlineExceeded):
				// A caller-imposed deadline or cancellation is not worker
				// fault: context.DeadlineExceeded satisfies net.Error (and
				// so IsTransient), but marking the worker dead for it would
				// let one impatient client disable a healthy shard. The
				// coordinator's own RPC timeout uses a distinct error and
				// still takes the transient path below.
				return nil, 0, fmt.Errorf("distrib: %w", p.err)
			case IsTransient(p.err):
				c.markDead(p.idx, p.err)
				lost = true
				if !c.PartialResults {
					if c.NoFailover {
						return nil, 0, fmt.Errorf("distrib: worker %s: %w", c.slot(p.idx).addr, p.err)
					}
					// Failover next round; keep draining the other errors
					// so every dead worker is marked this round.
				}
			default:
				// Application or protocol error: retrying or failing over
				// cannot fix a malformed reply or a worker-side bug.
				return nil, 0, fmt.Errorf("distrib: worker %d: %w", p.idx, p.err)
			}
		}
		if lost && !c.PartialResults {
			continue // re-dispatch orphans and retry the batch
		}
		avgs, coverage, err := c.fold(batch.Ends, answered)
		if err != nil {
			return nil, 0, err
		}
		shardCoverage().Observe(coverage)
		if coverage < 1 {
			degradedQueries().Inc()
			out.Partial = true
			if coverage < out.Coverage {
				out.Coverage = coverage
			}
			slog.Warn("degraded query batch", "coverage", coverage, "answered", len(answered))
		}
		return avgs, coverage, nil
	}
}

// queryPart is one worker's contribution to a scattered batch.
type queryPart struct {
	idx   int
	reply QueryReply
	err   error
}

// fold combines the answered partial sums into per-query averages; ends
// are the batch's word offsets, which fix each query's split count
// |B(query)|. The totals are derived from the replies themselves (Σ
// ShardSum, Σ ShardTrees), so the same arithmetic serves full and
// degraded batches: coverage is the answered tree count over the loaded
// total.
func (c *Coordinator) fold(ends []int, answered []queryPart) ([]float64, float64, error) {
	hits := make([]int64, len(ends))
	var sumAns uint64
	rAns := 0
	for _, p := range answered {
		rep := p.reply
		addr := c.slot(p.idx).addr
		if len(rep.Hits) != len(ends) {
			protocolErrors(addr).Inc()
			return nil, 0, fmt.Errorf("distrib: worker %d returned %d hits for %d queries", p.idx, len(rep.Hits), len(ends))
		}
		for j := range hits {
			hits[j] += rep.Hits[j]
		}
		sumAns += rep.ShardSum
		rAns += rep.ShardTrees
	}
	if rAns == 0 {
		return nil, 0, fmt.Errorf("distrib: no reference shards answered")
	}
	out := make([]float64, len(ends))
	rf := float64(rAns)
	nw := (c.taxa.Len() + 63) / 64
	prev := 0
	for j, e := range ends {
		splits := int64((e - prev) / nw)
		prev = e
		left := int64(sumAns) - hits[j]
		right := splits*int64(rAns) - hits[j]
		out[j] = float64(left+right) / rf
	}
	return out, float64(rAns) / float64(c.r), nil
}

// rehomeOrphans re-dispatches every orphaned shard onto a live worker via
// the checkpoint snapshot. The target merges the orphan into its own
// partition (Worker.Adopt), is re-checkpointed so a later failure of the
// target loses nothing, and the donor's orphan flag clears.
func (c *Coordinator) rehomeOrphans(ctx context.Context, out *Outcome) error {
	n := c.NumWorkers()
	for i := 0; i < n; i++ {
		c.mu.Lock()
		s := c.slots[i]
		orphaned := s.orphaned
		snap := s.snapshot
		c.mu.Unlock()
		if !orphaned {
			continue
		}
		if snap == nil {
			return fmt.Errorf("distrib: worker %s died with no shard checkpoint; cannot fail over", s.addr)
		}
		if err := c.adoptOnto(ctx, i, snap, out); err != nil {
			return err
		}
	}
	return nil
}

// adoptOnto finds a live worker to adopt dead worker donor's shard,
// trying each live worker in turn (an adoption target can itself die
// mid-failover).
func (c *Coordinator) adoptOnto(ctx context.Context, donor int, snap []byte, out *Outcome) error {
	s := c.slot(donor)
	var lastErr error
	for _, t := range c.liveIndexes() {
		var reply LoadReply
		err := c.call(ctx, t, "Adopt", AdoptArgs{ShardID: donor, Data: snap}, &reply)
		if err != nil {
			if IsTransient(err) {
				c.markDead(t, err)
				lastErr = err
				continue
			}
			return fmt.Errorf("distrib: worker %d adopting shard of %s: %w", t, s.addr, err)
		}
		target := c.slot(t)
		// Re-checkpoint the target: its partition now includes the
		// adopted shard, so the old snapshot is stale.
		var snapReply SnapshotReply
		if err := c.call(ctx, t, "Snapshot", SnapshotArgs{}, &snapReply); err != nil {
			if IsTransient(err) {
				c.markDead(t, err)
				lastErr = err
				continue
			}
			return fmt.Errorf("distrib: re-checkpointing worker %d: %w", t, err)
		}
		c.mu.Lock()
		target.snapshot = snapReply.Data
		target.trees = snapReply.Trees
		s.orphaned = false
		s.snapshot = nil
		c.mu.Unlock()
		shardFailovers(s.addr).Inc()
		out.Failovers++
		slog.Info("shard failed over", "from", s.addr, "to", target.addr,
			"trees", reply.ShardTrees, "unique", reply.ShardUnique)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live workers")
	}
	return fmt.Errorf("distrib: failing over shard of %s: %w", s.addr, lastErr)
}

// SnapshotWorker serializes worker i's shard (see snapshot.go for the
// wire format).
func (c *Coordinator) SnapshotWorker(i int) ([]byte, error) {
	if i < 0 || i >= c.NumWorkers() {
		return nil, fmt.Errorf("distrib: no worker %d", i)
	}
	var reply SnapshotReply
	if err := c.call(context.Background(), i, "Snapshot", SnapshotArgs{}, &reply); err != nil {
		return nil, fmt.Errorf("distrib: snapshot worker %d: %w", i, err)
	}
	return reply.Data, nil
}

// RestoreWorker installs a snapshot on worker i, replacing its shard.
// The coordinator adopts the snapshot's taxon catalogue, which it needs
// to extract query trees.
func (c *Coordinator) RestoreWorker(i int, data []byte) error {
	if i < 0 || i >= c.NumWorkers() {
		return fmt.Errorf("distrib: no worker %d", i)
	}
	hdr, err := bfhsnap.ReadHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return fmt.Errorf("distrib: restore worker %d: %w", i, err)
	}
	ts, err := taxa.NewOrderedSet(hdr.TaxaNames)
	if err != nil {
		return fmt.Errorf("distrib: restore worker %d catalogue: %w", i, err)
	}
	var reply LoadReply
	if err := c.call(context.Background(), i, "Restore", RestoreArgs{Data: data}, &reply); err != nil {
		return fmt.Errorf("distrib: restore worker %d: %w", i, err)
	}
	c.taxa = ts
	slog.Debug("worker restored", "worker", c.slot(i).addr,
		"shard_trees", reply.ShardTrees, "shard_unique", reply.ShardUnique)
	return nil
}

// MigrateShard moves worker from's shard onto worker to via
// snapshot/restore — no reference trees are re-shipped or re-parsed. The
// folded totals (sum, r) are unchanged: the shard's content moved, nothing
// was added or lost. The source worker keeps its state; re-Init it (or
// drop it from the address list) to retire it.
func (c *Coordinator) MigrateShard(from, to int) error {
	data, err := c.SnapshotWorker(from)
	if err != nil {
		return err
	}
	return c.RestoreWorker(to, data)
}
