// Package distrib extends BFHRF to multi-node operation — the paper's
// §VII.B future-work direction ("it is possible to extend this to a multi
// node configuration"). The reference collection is sharded across worker
// nodes, each holding a partial bipartition frequency hash; queries fan out
// and partial sums fold back exactly:
//
// With shards s, freq[b] = Σ_s freq_s[b] and sum = Σ_s sum_s, so for a
// query tree T' with |B(T')| non-trivial splits,
//
//	hits   = Σ_s Σ_{b'∈B(T')} freq_s[b']
//	RFleft  = sum − hits
//	RFright = |B(T')|·r − hits
//	avgRF(T') = (RFleft + RFright) / r
//
// Only O(1) scalars per (query, worker) cross the wire — the communication
// pattern that makes the approach scale. Transport is net/rpc over TCP
// (or any net.Listener), standard library only.
//
// The layer is fault tolerant: coordinator RPCs carry per-call deadlines,
// transient failures (dial errors, timeouts, severed connections) are
// retried with capped exponential backoff and jitter (retry.go), a
// background health loop grades workers healthy/suspect/dead (health.go),
// and a dead worker's shard is re-dispatched to a healthy worker from a
// post-load snapshot checkpoint (Worker.Adopt) so queries keep returning
// exact results. When failover is impossible, the degraded-results policy
// decides between failing the query and answering from the shards that
// responded with an explicit coverage annotation. ARCHITECTURE.md
// documents the full failure model.
package distrib

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/rpc"
	"sync"

	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/obs"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// ---- wire types ------------------------------------------------------------

// InitArgs announce the shared taxon catalogue to a worker.
type InitArgs struct {
	// TaxaNames in catalogue order (workers must agree on bit positions).
	TaxaNames []string
	// Backend names the shard's hash engine ("auto", "openaddr",
	// "succinct"); empty selects auto. Strings keep the wire format free
	// of core enums.
	Backend string
	// HashShards overrides the hash table's internal shard count
	// (0 = default).
	HashShards int
}

// LoadArgs carry a chunk of reference trees to a worker's shard.
type LoadArgs struct {
	// Newicks are serialized reference trees.
	Newicks []string
	// Seq is the coordinator's chunk sequence number (1-based,
	// monotonically increasing across the load). It makes Load idempotent
	// under retry: a worker that already folded chunk Seq answers its
	// current stats instead of double-counting the trees. 0 disables the
	// check (pre-fault-tolerance callers).
	Seq uint64
}

// LoadReply reports shard statistics after a chunk is folded in.
type LoadReply struct {
	// ShardTrees and ShardUnique describe the worker's partial hash.
	ShardTrees  int
	ShardUnique int
}

// TraceContext propagates the coordinator's distributed-tracing identity
// in RPC args (see internal/obs): the worker starts its spans under this
// trace so both sides of the RPC stitch into one stage tree. The zero
// value means "no recorded trace" and costs the worker nothing.
type TraceContext struct {
	// TraceHi and TraceLo are the halves of the 128-bit trace ID.
	TraceHi, TraceLo uint64
	// SpanID is the coordinator-side span issuing the RPC — the parent of
	// the worker's root span.
	SpanID uint64
	// Sampled reports whether the trace is being recorded.
	Sampled bool
}

// toTraceContext converts an obs span context for the wire.
func toTraceContext(sc obs.SpanContext) TraceContext {
	return TraceContext{
		TraceHi: sc.Trace.Hi,
		TraceLo: sc.Trace.Lo,
		SpanID:  uint64(sc.Span),
		Sampled: sc.Sampled,
	}
}

// spanContext converts back on the receiving side.
func (tc TraceContext) spanContext() obs.SpanContext {
	return obs.SpanContext{
		Trace:   obs.TraceID{Hi: tc.TraceHi, Lo: tc.TraceLo},
		Span:    obs.SpanID(tc.SpanID),
		Sampled: tc.Sampled,
	}
}

// QueryArgs carry a batch of query trees.
type QueryArgs struct {
	Newicks []string
	// Trace carries the coordinator's trace context so worker spans stitch
	// into the caller's trace (zero = untraced).
	Trace TraceContext
}

// QueryReply carries per-query partial sums.
type QueryReply struct {
	// Hits[i] = Σ_{b'∈B(query_i)} freq_shard[b'].
	Hits []int64
	// Splits[i] = |B(query_i)| (identical across workers; used for the
	// RFright term and cross-checked by the coordinator).
	Splits []int64
	// ShardSum and ShardTrees fold into the global sum and r.
	ShardSum   uint64
	ShardTrees int
	// Spans are the worker-side span records of this call, stamped with
	// the trace from QueryArgs.Trace; the coordinator folds them into its
	// live trace. Empty when the trace is not recorded.
	Spans []obs.SpanRecord
}

// ---- worker ----------------------------------------------------------------

// Worker is the RPC service holding one shard of the reference collection.
type Worker struct {
	mu         sync.Mutex
	taxa       *taxa.Set
	hash       *core.FreqHash
	backend    core.Backend
	hashShards int
	// lastSeq is the highest Load chunk sequence number folded in; chunks
	// re-sent by the coordinator's retry loop are answered, not re-added.
	lastSeq uint64
	// adopted records shard IDs merged in by failover, so a retried Adopt
	// cannot double-count an orphaned shard.
	adopted map[int]bool
}

// WorkerStatus is a consistent snapshot of a worker's shard, exposed for
// health endpoints (cmd/bfhrfd's /healthz).
type WorkerStatus struct {
	// Initialized reports whether Init installed a taxon catalogue.
	Initialized bool
	// Loaded reports whether at least one reference chunk was folded in.
	Loaded bool
	// Trees and Unique describe the shard's partial hash.
	Trees  int
	Unique int
}

// Status returns the worker's current shard state.
func (w *Worker) Status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStatus{Initialized: w.taxa != nil, Loaded: w.hash != nil}
	if w.hash != nil {
		st.Trees = w.hash.NumTrees()
		st.Unique = w.hash.UniqueBipartitions()
	}
	return st
}

// Init installs the catalogue and resets the shard.
func (w *Worker) Init(args InitArgs, reply *LoadReply) error {
	return observeRPC(sideWorker, "Init", func() error { return w.init(args, reply) })
}

func (w *Worker) init(args InitArgs, reply *LoadReply) error {
	ts, err := taxa.NewOrderedSet(args.TaxaNames)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	backend, err := core.ParseBackend(args.Backend)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.taxa = ts
	w.hash = nil
	w.backend = backend
	w.hashShards = args.HashShards
	w.lastSeq = 0
	w.adopted = nil
	*reply = LoadReply{}
	slog.Debug("worker initialized", "taxa", len(args.TaxaNames),
		"backend", backend.String(), "hash_shards", args.HashShards)
	return nil
}

// Load folds a chunk of reference trees into the shard's hash.
func (w *Worker) Load(args LoadArgs, reply *LoadReply) error {
	return observeRPC(sideWorker, "Load", func() error { return w.load(args, reply) })
}

func (w *Worker) load(args LoadArgs, reply *LoadReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.taxa == nil {
		return fmt.Errorf("distrib: worker not initialized")
	}
	if args.Seq != 0 && args.Seq <= w.lastSeq {
		// Duplicate delivery of a chunk the shard already folded in (the
		// coordinator retried after a transport failure that lost only
		// the reply). Answer the current stats instead of double-counting.
		if w.hash != nil {
			reply.ShardTrees = w.hash.NumTrees()
			reply.ShardUnique = w.hash.UniqueBipartitions()
		}
		slog.Debug("duplicate chunk ignored", "seq", args.Seq, "last_seq", w.lastSeq)
		return nil
	}
	trees, err := parseChunk(args.Newicks)
	if err != nil {
		return err
	}
	if w.hash == nil {
		h, err := core.Build(collection.FromTrees(trees), w.taxa, core.BuildOptions{
			RequireComplete: true,
			Backend:         w.backend,
			HashShards:      w.hashShards,
		})
		if err != nil {
			return err
		}
		w.hash = h
	} else {
		for _, t := range trees {
			if err := w.hash.AddTree(t, nil, true); err != nil {
				return err
			}
		}
	}
	if args.Seq != 0 {
		w.lastSeq = args.Seq
	}
	reply.ShardTrees = w.hash.NumTrees()
	reply.ShardUnique = w.hash.UniqueBipartitions()
	slog.Debug("shard chunk loaded",
		"chunk", len(args.Newicks), "shard_trees", reply.ShardTrees, "shard_unique", reply.ShardUnique)
	return nil
}

// HealthArgs request a worker's health status.
type HealthArgs struct{}

// Health is the RPC form of Status, probed by the coordinator's health
// loop (see health.go). It deliberately does no work beyond reading the
// shard state: a health probe must stay cheap under load.
func (w *Worker) Health(args HealthArgs, reply *WorkerStatus) error {
	return observeRPC(sideWorker, "Health", func() error {
		*reply = w.Status()
		return nil
	})
}

// Query computes partial hit sums for a batch of query trees. A worker
// that was initialized but received no reference chunk answers as an empty
// shard (zero hits, zero trees) so that uneven sharding is harmless.
func (w *Worker) Query(args QueryArgs, reply *QueryReply) error {
	return observeRPC(sideWorker, "Query", func() error { return w.query(args, reply) })
}

func (w *Worker) query(args QueryArgs, reply *QueryReply) error {
	// The worker-side root span joins the coordinator's trace when the args
	// carry one; its completed records travel back in the reply.
	_, span := obs.StartRemoteSpan(nil, "worker.query", args.Trace.spanContext())
	err := w.queryShard(span, args, reply)
	span.End()
	if err == nil {
		reply.Spans = span.Records()
	}
	return err
}

func (w *Worker) queryShard(span *obs.Span, args QueryArgs, reply *QueryReply) error {
	w.mu.Lock()
	h := w.hash
	ts := w.taxa
	w.mu.Unlock()
	if ts == nil {
		return fmt.Errorf("distrib: worker not initialized")
	}
	// The hash copies what it keeps, so the extractor can recycle masks,
	// and the prober probes with no per-lookup key allocation.
	ex := bipart.NewExtractor(ts)
	ex.ReuseMasks = true
	var p *core.Prober
	if h != nil {
		p = h.NewProber()
	}
	reply.Hits = make([]int64, len(args.Newicks))
	reply.Splits = make([]int64, len(args.Newicks))
	lookups, misses := 0, 0
	for i, nwk := range args.Newicks {
		bs, err := ex.ExtractNewick(nwk)
		if err != nil {
			return fmt.Errorf("distrib: query %d: %w", i, err)
		}
		if p != nil {
			hits, m := p.Hits(bs)
			reply.Hits[i] = hits
			lookups += len(bs)
			misses += m
		}
		reply.Splits[i] = int64(len(bs))
	}
	if h != nil {
		reply.ShardSum = h.TotalBipartitions()
		reply.ShardTrees = h.NumTrees()
	}
	if span.Recorded() {
		span.SetAttr("queries", len(args.Newicks))
		span.SetAttr("lookups", lookups)
		span.SetAttr("misses", misses)
		span.SetAttr("shard_trees", reply.ShardTrees)
	}
	// The shard answers queries outside core.AverageRF, so it feeds the
	// same core counters (bfhrf_queries_total et al.) itself.
	core.RecordQueries(len(args.Newicks), lookups, misses)
	return nil
}

// parseChunk parses serialized trees, failing fast on the first error.
func parseChunk(newicks []string) ([]*tree.Tree, error) {
	out := make([]*tree.Tree, len(newicks))
	for i, nwk := range newicks {
		t, err := newick.Parse(nwk)
		if err != nil {
			return nil, fmt.Errorf("distrib: reference tree %d: %w", i, err)
		}
		out[i] = t
	}
	return out, nil
}

// ---- serving ---------------------------------------------------------------

// Serve registers a fresh Worker on a net/rpc server and serves l until it
// is closed. Each call runs in its own goroutine (net/rpc behaviour).
func Serve(l net.Listener) error {
	return ServeWorker(l, &Worker{})
}

// ServeWorker serves an explicit Worker on l, so the caller keeps a handle
// on the shard state (cmd/bfhrfd's health endpoint reads w.Status while
// the RPC server runs). Connections are metered into the worker-side byte
// counters.
func ServeWorker(l net.Listener, w *Worker) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("BFHRF", w); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go srv.ServeConn(meterConn(conn, sideWorker))
	}
}

// Listen starts a worker on addr (e.g. "127.0.0.1:0") and returns the
// listener; callers close it to stop the worker.
func Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go Serve(l) //nolint:errcheck — terminates when l closes
	return l, nil
}
