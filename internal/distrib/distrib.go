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
// Only O(1) scalars per (query, worker) come back — the communication
// pattern that makes the approach scale. Trees travel out as their
// canonical split words, never as Newick: the coordinator extracts each
// tree once (bipart.Extractor) and ships a flat []uint64 of masks plus
// one end offset per tree; a worker validates the words
// (bipart.WordsView) and probes them directly, with no parse and no
// extraction. Reference chunks carry each split's branch length too.
// FORMATS.md ("RPC wire") specifies the layout and the Protocol check.
// Transport is net/rpc over TCP (or any net.Listener), standard library
// only.
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
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/taxa"
)

// ---- wire types ------------------------------------------------------------

// Protocol is the RPC wire version this package speaks. InitArgs carry
// the coordinator's, a worker refuses any other, and every QueryReply
// echoes the worker's, so the coordinator's post-load probe refuses a
// worker that speaks another version. A worker built before versioning
// answers 0: it would silently drop the split words and report zero
// splits, a wrong answer rather than an error.
const Protocol = 1

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
	// Protocol is the coordinator's wire version (see Protocol).
	Protocol int
}

// LoadArgs carry a chunk of reference trees to a worker's shard in the
// split-word layout of QueryArgs, plus every split's branch length.
type LoadArgs struct {
	// Words and Ends hold the chunk's splits, laid out as in QueryArgs.
	Words []uint64
	Ends  []int
	// Lengths[j] is split j's branch length (in chunk order); bit j%64 of
	// HasLength[j/64] reports whether split j has one.
	Lengths   []float64
	HasLength []uint64
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

// add appends one reference tree's splits to the chunk.
func (a *LoadArgs) add(bs []bipart.Bipartition) {
	for _, b := range bs {
		j := len(a.Lengths)
		if j%64 == 0 {
			a.HasLength = append(a.HasLength, 0)
		}
		if b.HasLength {
			a.HasLength[j/64] |= 1 << (j % 64)
		}
		a.Lengths = append(a.Lengths, b.Length)
	}
	a.Words = bipart.AppendWords(a.Words, bs)
	a.Ends = append(a.Ends, len(a.Words))
}

// QueryArgs carry a batch of query trees as their canonical split words:
// query i's splits are Words[Ends[i-1]:Ends[i]] (with Ends[-1] = 0), each
// split ⌈n/64⌉ little-endian words over the n-taxon catalogue, in the
// form bipart.WordsView accepts. The zero value is the empty batch, the
// post-load totals probe.
type QueryArgs struct {
	Words []uint64
	Ends  []int
	// Trace carries the coordinator's trace context so worker spans stitch
	// into the caller's trace (zero = untraced).
	Trace TraceContext
}

// add appends one query tree's splits to the batch.
func (a *QueryArgs) add(bs []bipart.Bipartition) {
	a.Words = bipart.AppendWords(a.Words, bs)
	a.Ends = append(a.Ends, len(a.Words))
}

// QueryReply carries per-query partial sums.
type QueryReply struct {
	// Protocol is the worker's wire version (see Protocol).
	Protocol int
	// Hits[i] = Σ_{b'∈B(query_i)} freq_shard[b'].
	Hits []int64
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
	// views recycles the *bipart.WordsView scratch of Load and Query
	// calls, which net/rpc runs concurrently.
	views sync.Pool
}

// view takes a split view from the worker's pool; put it back once
// nothing uses the splits it returned.
func (w *Worker) view() *bipart.WordsView {
	if v, ok := w.views.Get().(*bipart.WordsView); ok {
		return v
	}
	return new(bipart.WordsView)
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
	if args.Protocol != Protocol {
		return fmt.Errorf("distrib: coordinator speaks wire protocol %d, this worker %d", args.Protocol, Protocol)
	}
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
	view := w.view()
	defer w.views.Put(view)
	bs, sets, err := decodeSplits(view, args.Words, args.Ends, w.taxa.Len())
	if err != nil {
		return fmt.Errorf("distrib: reference chunk: %w", err)
	}
	if len(args.Lengths) != len(bs) || len(args.HasLength) != (len(bs)+63)/64 {
		return fmt.Errorf("distrib: reference chunk: %d lengths and %d presence words for %d splits",
			len(args.Lengths), len(args.HasLength), len(bs))
	}
	for j := range bs {
		bs[j].Length = args.Lengths[j]
		bs[j].HasLength = args.HasLength[j/64]>>(j%64)&1 != 0
	}
	if err := hitTrees(len(sets)); err != nil {
		return err
	}
	if w.hash == nil {
		h, err := core.BuildSplits(sets, w.taxa, core.BuildOptions{
			Backend:    w.backend,
			HashShards: w.hashShards,
		})
		if err != nil {
			return err
		}
		w.hash = h
	} else {
		for _, set := range sets {
			w.hash.AddSplits(set)
		}
	}
	if args.Seq != 0 {
		w.lastSeq = args.Seq
	}
	reply.ShardTrees = w.hash.NumTrees()
	reply.ShardUnique = w.hash.UniqueBipartitions()
	slog.Debug("shard chunk loaded",
		"chunk", len(sets), "shard_trees", reply.ShardTrees, "shard_unique", reply.ShardUnique)
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
	// The splits alias the received words, and the prober probes them
	// with no per-lookup key allocation.
	view := w.view()
	defer w.views.Put(view)
	_, sets, err := decodeSplits(view, args.Words, args.Ends, ts.Len())
	if err != nil {
		return fmt.Errorf("distrib: query batch: %w", err)
	}
	if err := hitTrees(len(sets)); err != nil {
		return err
	}
	reply.Protocol = Protocol
	reply.Hits = make([]int64, len(sets))
	lookups, misses := 0, 0
	if h != nil {
		p := h.NewProber()
		for i, bs := range sets {
			hits, m := p.Hits(bs)
			reply.Hits[i] = hits
			lookups += len(bs)
			misses += m
		}
	}
	if h != nil {
		reply.ShardSum = h.TotalBipartitions()
		reply.ShardTrees = h.NumTrees()
	}
	if span.Recorded() {
		span.SetAttr("queries", len(sets))
		span.SetAttr("lookups", lookups)
		span.SetAttr("misses", misses)
		span.SetAttr("shard_trees", reply.ShardTrees)
	}
	// The shard answers queries outside core.AverageRF, so it feeds the
	// same core counters (bfhrf_queries_total et al.) itself.
	core.RecordQueries(len(sets), lookups, misses)
	return nil
}

// decodeSplits validates a chunk or batch in the split-word layout of
// QueryArgs against an n-taxon catalogue — end offsets that never
// decrease, stay inside words, cut whole splits and cover every word;
// every split canonical and non-trivial — and returns its splits, all
// of them and then one set per tree, aliasing words through v.
func decodeSplits(v *bipart.WordsView, words []uint64, ends []int, n int) ([]bipart.Bipartition, [][]bipart.Bipartition, error) {
	// An empty catalogue has no splits: View refuses any word, so one
	// word per split suffices to check its offsets.
	nw := max(1, (n+63)/64)
	prev := 0
	for i, e := range ends {
		switch {
		case e < prev || e > len(words):
			return nil, nil, fmt.Errorf("tree %d: end offset %d outside [%d, %d]", i, e, prev, len(words))
		case (e-prev)%nw != 0:
			return nil, nil, fmt.Errorf("tree %d: %d words are not whole %d-word splits", i, e-prev, nw)
		}
		prev = e
	}
	if prev != len(words) {
		return nil, nil, fmt.Errorf("%d words past the last tree", len(words)-prev)
	}
	bs, err := v.View(words, n)
	if err != nil {
		return nil, nil, err
	}
	sets := make([][]bipart.Bipartition, len(ends))
	prev = 0
	for i, e := range ends {
		sets[i] = bs[prev/nw : e/nw]
		prev = e
	}
	return bs, sets, nil
}

// hitTrees fires the worker.tree fault point once per tree a worker is
// about to fold or probe, before any of them touches the shard.
func hitTrees(trees int) error {
	for i := 0; i < trees; i++ {
		if err := faultinject.Hit(faultinject.PointWorkerTree); err != nil {
			return err
		}
	}
	return nil
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
