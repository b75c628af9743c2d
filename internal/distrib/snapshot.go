package distrib

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bfhsnap"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/taxa"
)

// Shard snapshots: a worker's partial frequency hash, serialized in the
// shared bfhsnap stream format (see FORMATS.md). A snapshot captures the
// hash itself — not the reference trees — so restoring costs one pass
// over the storage instead of a re-parse and re-extract of the shard's
// collection. Both sides stream: the encoder walks the table arenas
// section by section and the decoder installs each section as it
// arrives, so neither holds more than one section's payload beyond the
// transport buffer itself.
//
// Snapshots travel two ways. Over RPC (checkpointing, migration,
// failover) the stream rides in a []byte because net/rpc frames whole
// messages. On a shared filesystem the coordinator persists worker
// snapshots as a worker-layout bfhsnap epoch (SaveSnapshotsContext) and
// workers re-open the part files directly (RestoreArgs.Path), skipping
// the RPC byte ship entirely.

// EncodeSnapshot serializes h into the bfhsnap stream format. Callers
// with an io.Writer at hand should prefer bfhsnap.WriteStream, which
// streams; this materializes the stream for RPC transport.
func EncodeSnapshot(h *core.FreqHash) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := bfhsnap.WriteStream(&buf, h, 0, h.NumShards()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot reassembles a hash from the stream format. The restored
// hash keeps the snapshot's backend.
func DecodeSnapshot(data []byte) (*core.FreqHash, error) {
	h, _, err := bfhsnap.ReadStream(bytes.NewReader(data), int64(len(data)))
	return h, err
}

// SnapshotArgs request a worker's shard snapshot.
type SnapshotArgs struct{}

// SnapshotReply carries the serialized shard.
type SnapshotReply struct {
	Data []byte
	// Trees and Unique describe the snapshotted shard, for logging and
	// coordinator sanity checks.
	Trees  int
	Unique int
}

// Snapshot serializes the worker's partial hash. Used for checkpointing a
// shard and for migrating it to a replacement worker without re-shipping
// and re-parsing the reference trees.
func (w *Worker) Snapshot(args SnapshotArgs, reply *SnapshotReply) error {
	return observeRPC(sideWorker, "Snapshot", func() error { return w.snapshot(args, reply) })
}

func (w *Worker) snapshot(_ SnapshotArgs, reply *SnapshotReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hash == nil {
		return fmt.Errorf("distrib: nothing to snapshot: no reference chunk loaded")
	}
	data, err := EncodeSnapshot(w.hash)
	if err != nil {
		return err
	}
	reply.Data = data
	reply.Trees = w.hash.NumTrees()
	reply.Unique = w.hash.UniqueBipartitions()
	slog.Debug("shard snapshot encoded",
		"bytes", len(data), "trees", reply.Trees, "unique", reply.Unique)
	return nil
}

// RestoreArgs carry a snapshot to install on a worker. When Path is set
// the worker streams the snapshot straight from that file (the workers
// share a filesystem with the coordinator — the epoch-store case) and
// Data may be left empty; otherwise Data holds the serialized stream.
type RestoreArgs struct {
	Data []byte
	Path string
}

// Restore replaces the worker's shard state with the decoded snapshot,
// including its taxon catalogue — the receiving half of a migration.
func (w *Worker) Restore(args RestoreArgs, reply *LoadReply) error {
	return observeRPC(sideWorker, "Restore", func() error { return w.restore(args, reply) })
}

func (w *Worker) restore(args RestoreArgs, reply *LoadReply) error {
	var h *core.FreqHash
	var err error
	switch {
	case args.Path != "":
		h, _, err = bfhsnap.LoadFile(args.Path)
		if err != nil && len(args.Data) > 0 {
			// The worker may not share the coordinator's filesystem; fall
			// back to the shipped bytes.
			h, err = DecodeSnapshot(args.Data)
		}
	case len(args.Data) > 0:
		h, err = DecodeSnapshot(args.Data)
	default:
		return fmt.Errorf("distrib: restore request carries neither path nor data")
	}
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.taxa = h.Taxa()
	w.hash = h
	w.adopted = nil
	reply.ShardTrees = h.NumTrees()
	reply.ShardUnique = h.UniqueBipartitions()
	slog.Debug("shard restored from snapshot",
		"path", args.Path, "bytes", len(args.Data),
		"trees", reply.ShardTrees, "unique", reply.ShardUnique)
	return nil
}

// AdoptArgs carry an orphaned shard (a dead worker's checkpoint) to a
// surviving worker during failover.
type AdoptArgs struct {
	// ShardID identifies the orphaned shard (the dead worker's index at
	// the coordinator). Adoption is idempotent per ID: a retried Adopt
	// after a lost reply cannot double-count the shard.
	ShardID int
	// Data is the shard's snapshot in the stream format above.
	Data []byte
}

// Adopt merges an orphaned shard into the worker's own partition — the
// receiving half of failover. Unlike Restore it adds to the current shard
// instead of replacing it: freq[b] = Σ_s freq_s[b] is associative, so the
// merged partition answers for both shards at once and the global fold
// stays exact.
func (w *Worker) Adopt(args AdoptArgs, reply *LoadReply) error {
	return observeRPC(sideWorker, "Adopt", func() error { return w.adopt(args, reply) })
}

func (w *Worker) adopt(args AdoptArgs, reply *LoadReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	stats := func() {
		if w.hash != nil {
			reply.ShardTrees = w.hash.NumTrees()
			reply.ShardUnique = w.hash.UniqueBipartitions()
		}
	}
	if w.adopted[args.ShardID] {
		stats()
		slog.Debug("duplicate adoption ignored", "shard", args.ShardID)
		return nil
	}
	orphan, err := DecodeSnapshot(args.Data)
	if err != nil {
		return err
	}
	if w.hash == nil {
		// Fresh or empty worker: the orphan becomes its whole partition.
		w.taxa = orphan.Taxa()
		w.hash = orphan
	} else {
		merged, err := core.Merge(w.hash, orphan)
		if err != nil {
			return err
		}
		w.hash = merged
	}
	if w.adopted == nil {
		w.adopted = make(map[int]bool)
	}
	w.adopted[args.ShardID] = true
	stats()
	slog.Info("orphaned shard adopted",
		"shard", args.ShardID, "bytes", len(args.Data),
		"shard_trees", reply.ShardTrees, "shard_unique", reply.ShardUnique)
	return nil
}

// SaveSnapshotsContext persists the cluster's loaded reference collection
// as a worker-layout epoch under dir: one part file per non-empty worker,
// each a complete bfhsnap stream of that worker's partial hash. Workers
// are snapshotted one at a time and streamed straight to the staging
// directory, so the coordinator holds at most one shard's bytes. Returns
// the published epoch number.
func (c *Coordinator) SaveSnapshotsContext(ctx context.Context, dir string) (int, error) {
	if c.taxa == nil || c.r == 0 {
		return 0, fmt.Errorf("distrib: nothing to save: load references first")
	}
	store, err := bfhsnap.Open(dir)
	if err != nil {
		return 0, err
	}
	var workers []int
	for _, i := range c.liveIndexes() {
		if c.slot(i).trees > 0 {
			workers = append(workers, i)
		}
	}
	if len(workers) == 0 {
		return 0, fmt.Errorf("distrib: no live worker holds a shard")
	}
	man := &bfhsnap.Manifest{
		Backend:     c.Backend.String(),
		Trees:       c.r,
		Sum:         c.sum,
		Taxa:        c.taxa.Len(),
		Shards:      c.HashShards,
		Fingerprint: c.fp,
		Digest:      c.digest,
		Weighted:    true,
	}
	// Shard count and the weighted flag are worker-side facts;
	// each writer folds its part's header into the manifest as it streams
	// (PublishWorkerEpoch runs writers before serializing MANIFEST). Every
	// part holds trees, and the epoch is weighted only if each part is.
	writers := make([]func(io.Writer) error, 0, len(workers))
	for _, i := range workers {
		i := i
		writers = append(writers, func(w io.Writer) error {
			var reply SnapshotReply
			if err := c.call(ctx, i, "Snapshot", SnapshotArgs{}, &reply); err != nil {
				return fmt.Errorf("distrib: snapshotting worker %d: %w", i, err)
			}
			hdr, err := bfhsnap.ReadHeader(bytes.NewReader(reply.Data), int64(len(reply.Data)))
			if err != nil {
				return fmt.Errorf("distrib: worker %d snapshot: %w", i, err)
			}
			man.Shards = hdr.Shards
			man.Weighted = man.Weighted && hdr.Weighted
			if _, err := w.Write(reply.Data); err != nil {
				return err
			}
			return nil
		})
	}
	n, err := store.PublishWorkerEpoch(man, writers)
	if err != nil {
		return 0, err
	}
	slog.Info("cluster snapshot published", "dir", dir, "epoch", n,
		"parts", len(workers), "trees", c.r)
	return n, nil
}

// LoadSnapshotContext restores the cluster from the current worker-layout
// epoch under dir, installing one part per worker (parts beyond the
// worker count are merged onto workers round-robin; workers beyond the
// part count start as empty shards). Workers restore concurrently, one
// goroutine each. Workers that share the coordinator's filesystem stream
// the part files directly; others get the bytes over RPC. A worker
// restored from exactly one part keeps that part's bytes as its failover
// checkpoint, so only workers that merged extra parts are snapshotted
// over RPC. Replaces any previously loaded references.
func (c *Coordinator) LoadSnapshotContext(ctx context.Context, dir string) error {
	if c.NumWorkers() == 0 {
		return fmt.Errorf("distrib: no workers")
	}
	store, err := bfhsnap.Open(dir)
	if err != nil {
		return err
	}
	cur := store.Current()
	if cur == 0 {
		return fmt.Errorf("distrib: %s holds no published epoch", dir)
	}
	man, err := store.Manifest(cur)
	if err != nil {
		return err
	}
	if man.Layout != bfhsnap.LayoutWorker {
		return fmt.Errorf("distrib: epoch %d has %q layout (a single-node snapshot); load it with bfhrf", cur, man.Layout)
	}
	hdr0, err := bfhsnap.ReadHeaderFile(store.PartPath(cur, man.Parts[0]))
	if err != nil {
		return err
	}
	ts, err := taxa.NewOrderedSet(hdr0.TaxaNames)
	if err != nil {
		return fmt.Errorf("distrib: epoch %d catalogue: %w", cur, err)
	}
	paths := make([]string, len(man.Parts))
	for p, part := range man.Parts {
		if paths[p], err = filepath.Abs(store.PartPath(cur, part)); err != nil {
			return err
		}
	}
	c.taxa = ts
	n := c.NumWorkers()
	// The old checkpoints describe shards that are about to be replaced.
	c.mu.Lock()
	for _, s := range c.slots {
		s.snapshot = nil
	}
	c.mu.Unlock()
	// Worker t takes parts t, t+n, t+2n, ... in order and stops at its
	// first failed part. Every part below the lowest-numbered failure is
	// tried, so that failure is reported whichever worker hit it first.
	errs := make([]error, len(paths))
	have := make([][]byte, n)
	var wg sync.WaitGroup
	for t := 0; t < min(n, len(paths)); t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// The span is this goroutine's own, so the retry hook's SetAttr
			// never touches a span another goroutine owns.
			rctx, span := obs.StartSpan(ctx, "rpc.restore")
			defer span.End()
			span.SetAttr("worker", c.slot(t).addr)
			data, p, err := c.restoreParts(rctx, t, paths, n)
			if err != nil {
				errs[p] = err
				span.SetAttr("error", err.Error())
			}
			have[t] = data
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Workers past the last part start as empty shards on the epoch's
	// catalogue, so the totals probe and every query find them ready.
	init := InitArgs{
		TaxaNames:  hdr0.TaxaNames,
		Backend:    hdr0.Backend.String(),
		HashShards: c.HashShards,
		Protocol:   Protocol,
	}
	for i := len(man.Parts); i < n; i++ {
		var reply LoadReply
		if err := c.call(ctx, i, "Init", init, &reply); err != nil {
			return fmt.Errorf("distrib: init worker %d: %w", i, err)
		}
	}
	// Re-fold global totals from the restored cluster, as Load does.
	if err := c.probeTotals(ctx); err != nil {
		return err
	}
	if man.Trees != 0 && c.r != man.Trees {
		return fmt.Errorf("distrib: restored cluster holds %d trees, epoch %d declares %d", c.r, cur, man.Trees)
	}
	c.digest = man.Digest
	c.fp = fingerprint(ts, c.r, c.sum, c.digest)
	if man.Fingerprint != 0 && c.fp != man.Fingerprint {
		return fmt.Errorf("distrib: restored fingerprint %016x, epoch %d declares %016x", c.fp, cur, man.Fingerprint)
	}
	if err := c.checkpoint(ctx, have); err != nil {
		return err
	}
	slog.Info("cluster restored from snapshot", "dir", dir, "epoch", cur,
		"parts", len(man.Parts), "trees", c.r)
	return nil
}

// restoreParts installs worker t's parts (t, t+n, t+2n, ... of paths):
// the first replaces its shard, the rest merge onto it in order. On
// failure it returns the part that failed. When the worker holds exactly
// one part and failover is on, it returns that part's bytes: they are
// the worker's shard serialized, and so its checkpoint.
func (c *Coordinator) restoreParts(ctx context.Context, t int, paths []string, n int) ([]byte, int, error) {
	// First part on this worker: replace its shard. Try the shared
	// filesystem first; on failure re-send with the bytes inline.
	var data []byte
	var reply LoadReply
	if err := c.call(ctx, t, "Restore", RestoreArgs{Path: paths[t]}, &reply); err != nil {
		var rerr error
		if data, rerr = readPartBytes(paths[t]); rerr != nil {
			return nil, t, fmt.Errorf("distrib: restoring worker %d: %w", t, err)
		}
		if err := c.call(ctx, t, "Restore", RestoreArgs{Data: data}, &reply); err != nil {
			return nil, t, fmt.Errorf("distrib: restoring worker %d: %w", t, err)
		}
	}
	if t+n >= len(paths) {
		if data == nil && !c.NoFailover {
			// Should the coordinator fail to read the file the worker
			// just restored from, checkpoint takes a Snapshot RPC instead.
			data, _ = readPartBytes(paths[t])
		}
		return data, 0, nil
	}
	// More parts than workers: fold the extras in round-robin.
	for p := t + n; p < len(paths); p += n {
		data, err := readPartBytes(paths[p])
		if err != nil {
			return nil, p, err
		}
		if err := c.call(ctx, t, "Adopt", AdoptArgs{ShardID: -1 - p, Data: data}, &reply); err != nil {
			return nil, p, fmt.Errorf("distrib: merging part %d onto worker %d: %w", p, t, err)
		}
	}
	return nil, 0, nil
}

func readPartBytes(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	return b, nil
}
