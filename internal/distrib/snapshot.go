package distrib

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"

	"repro/internal/bfhsnap"
	"repro/internal/bfhtable"
	"repro/internal/core"
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
		merged, err := mergeHashes(w.hash, orphan)
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

// mergeHashes folds two partial frequency hashes over the same taxon
// catalogue into one: frequencies add, tree counts add, and the result
// keeps a's backend. This is the shard-merge primitive
// behind failover.
func mergeHashes(a, b *core.FreqHash) (*core.FreqHash, error) {
	an, bn := a.Taxa().Names(), b.Taxa().Names()
	if len(an) != len(bn) {
		return nil, fmt.Errorf("distrib: cannot merge shards over different catalogues (%d vs %d taxa)", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return nil, fmt.Errorf("distrib: cannot merge shards: catalogues disagree at position %d (%q vs %q)", i, an[i], bn[i])
		}
	}
	rest, err := core.NewRestorer(core.RestoreSpec{
		Taxa:       a.Taxa(),
		NumTrees:   a.NumTrees() + b.NumTrees(),
		Weighted:   a.Weighted() || b.Weighted(),
		Backend:    a.Backend(),
		HashShards: a.NumShards(),
	})
	if err != nil {
		return nil, err
	}
	for _, h := range []*core.FreqHash{a, b} {
		for s := 0; s < h.NumShards(); s++ {
			var addErr error
			h.RangeShardRaw(s, func(words []uint64, e bfhtable.Entry) bool {
				addErr = rest.AddEntry(words, e)
				return addErr == nil
			})
			if addErr != nil {
				return nil, addErr
			}
		}
	}
	return rest.Finish()
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
	}
	// Shard count and weighted totals are worker-side facts;
	// each writer folds its part's header into the manifest as it streams
	// (PublishWorkerEpoch runs writers before serializing MANIFEST).
	var lenSum float64
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
			man.Weighted = man.Weighted || hdr.Weighted
			lenSum += hdr.LenSum
			man.LenSumBits = math.Float64bits(lenSum)
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
// part count start as empty shards). Workers that share
// the coordinator's filesystem stream the part files directly; others
// get the bytes over RPC. Replaces any previously loaded references.
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
	c.taxa = ts
	n := c.NumWorkers()
	for p, part := range man.Parts {
		path, err := filepath.Abs(store.PartPath(cur, part))
		if err != nil {
			return err
		}
		target := p % n
		var reply LoadReply
		if p < n {
			// First part on this worker: replace its shard. Try the shared
			// filesystem first; on failure re-send with the bytes inline.
			if err := c.call(ctx, target, "Restore", RestoreArgs{Path: path}, &reply); err != nil {
				data, rerr := readPartBytes(path)
				if rerr != nil {
					return fmt.Errorf("distrib: restoring worker %d: %w", target, err)
				}
				if err := c.call(ctx, target, "Restore", RestoreArgs{Data: data}, &reply); err != nil {
					return fmt.Errorf("distrib: restoring worker %d: %w", target, err)
				}
			}
		} else {
			// More parts than workers: fold the extras in round-robin.
			data, err := readPartBytes(path)
			if err != nil {
				return err
			}
			if err := c.call(ctx, target, "Adopt", AdoptArgs{ShardID: -1 - p, Data: data}, &reply); err != nil {
				return fmt.Errorf("distrib: merging part %d onto worker %d: %w", p, target, err)
			}
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
	c.fp = fingerprint(ts, c.r, c.sum)
	if man.Fingerprint != 0 && c.fp != man.Fingerprint {
		return fmt.Errorf("distrib: restored fingerprint %016x, epoch %d declares %016x", c.fp, cur, man.Fingerprint)
	}
	if err := c.checkpoint(ctx); err != nil {
		return err
	}
	slog.Info("cluster restored from snapshot", "dir", dir, "epoch", cur,
		"parts", len(man.Parts), "trees", c.r)
	return nil
}

func readPartBytes(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	return b, nil
}
