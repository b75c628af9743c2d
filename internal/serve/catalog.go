package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/bfhsnap"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/tree"
)

// The catalog is the multi-tenant unit of serving: named, versioned
// reference collections, each answering average-RF queries. Two backend
// shapes exist — a locally pinned bfhsnap epoch (the common case: the
// snapshot is loaded once and served from this process) and a
// distributed collection riding a distrib.Coordinator's worker shards.
// Local backends refcount their pinned epoch, so a Refresh after a delta
// or compact publish swaps readers onto the new epoch without ever
// tearing a query that is mid-flight on the old one.

// StatusError maps a query failure to the HTTP status it should produce.
type StatusError struct {
	// Status is the HTTP status code (4xx input, 5xx infrastructure).
	Status int
	// Err is the underlying failure.
	Err error
}

// Error implements the error interface.
func (e *StatusError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause for errors.Is/As.
func (e *StatusError) Unwrap() error { return e.Err }

// httpStatusOf extracts the HTTP status for err: an explicit
// StatusError wins; deadline/cancellation maps to 504; anything else is
// the caller-supplied fallback.
func httpStatusOf(err error, fallback int) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return fallback
}

// Answer is one collection's response to a query batch.
type Answer struct {
	// Results are the per-tree averages, in request order.
	Results []core.Result
	// Coverage is the fraction of reference trees behind the answer
	// (1 = exact; lower only on a degraded distributed collection).
	Coverage float64
	// Epoch is the bfhsnap epoch that answered (0 when the collection was
	// built from files rather than a snapshot store).
	Epoch int
}

// CollectionStats describe one catalog entry for /v1/collections.
type CollectionStats struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Kind is "local" (pinned epoch in this process) or "distributed"
	// (worker shards behind a coordinator).
	Kind string `json:"kind"`
	// Epoch is the serving snapshot epoch (0 if not epoch-backed).
	Epoch int `json:"epoch"`
	// Trees is the reference collection size.
	Trees int `json:"trees"`
	// Taxa is the catalogue size.
	Taxa int `json:"taxa"`
	// Fingerprint identifies the reference collection (hex).
	Fingerprint string `json:"fingerprint"`
}

// Backend answers average-RF queries for one reference collection.
type Backend interface {
	// Query compares the parsed trees against the collection. The context
	// carries the per-request deadline.
	Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*Answer, error)
	// Stats describes the collection (name is filled in by the catalog).
	Stats() CollectionStats
	// Close releases the backend's resources (epoch pins).
	Close()
}

// Local serves a pinned bfhsnap epoch from this process. Concurrent
// queries share one in-memory hash (FreqHash reads are lock-free); the
// pin is refcounted so Refresh never tears an in-flight query.
type Local struct {
	store *bfhsnap.Store
	// Workers bounds per-query compute parallelism (0 = GOMAXPROCS).
	Workers int

	mu  sync.Mutex
	cur *pinnedEpoch
}

// pinnedEpoch is one refcounted epoch pin. retired marks a pin that has
// been superseded by Refresh; its epoch is released when the last
// in-flight query drops its reference.
type pinnedEpoch struct {
	epoch   *bfhsnap.Epoch
	refs    int
	retired bool
}

// OpenLocal opens dir as a bfhsnap store and pins its current epoch.
func OpenLocal(dir string, workers int) (*Local, error) {
	st, err := bfhsnap.Open(dir)
	if err != nil {
		return nil, err
	}
	e, err := st.Pin()
	if err != nil {
		return nil, err
	}
	return &Local{store: st, Workers: workers, cur: &pinnedEpoch{epoch: e}}, nil
}

// acquire takes a reference on the current pin.
func (b *Local) acquire() *pinnedEpoch {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur.refs++
	return b.cur
}

// release drops a reference; a retired pin's epoch is released with the
// last reference.
func (b *Local) release(p *pinnedEpoch) {
	b.mu.Lock()
	p.refs--
	drop := p.retired && p.refs == 0
	b.mu.Unlock()
	if drop {
		p.epoch.Release()
	}
}

// Refresh re-pins the store's current epoch — the reader half of a delta
// or compact publish. The new epoch is fully loaded before the swap, and
// the old pin is released only when its last in-flight query finishes,
// so no query ever observes a half-switched collection. Returns the
// epoch now serving.
func (b *Local) Refresh() (int, error) {
	// Re-read CURRENT first: the epoch is usually published by another
	// process (bfhrf -delta-add / -compact-bfh) and this store handle's
	// cached pointer would not see it.
	if err := b.store.Reload(); err != nil {
		return 0, err
	}
	e, err := b.store.Pin()
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	old := b.cur
	b.cur = &pinnedEpoch{epoch: e}
	old.retired = true
	drop := old.refs == 0
	b.mu.Unlock()
	if drop {
		old.epoch.Release()
	}
	return e.N, nil
}

// Query implements Backend against the pinned hash.
func (b *Local) Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*Answer, error) {
	p := b.acquire()
	defer b.release(p)
	results, err := p.epoch.Hash.AverageRF(collection.FromTrees(trees), core.QueryOptions{
		Workers: b.Workers,
		Variant: v,
		Context: ctx,
	})
	if err != nil {
		// A canceled run maps to 504 via httpStatusOf; everything else a
		// local hash rejects is input-shaped (unknown taxon, variant
		// mismatch, malformed topology) — the client's fault.
		return nil, &StatusError{Status: httpStatusOf(err, http.StatusBadRequest), Err: err}
	}
	return &Answer{Results: results, Coverage: 1, Epoch: p.epoch.N}, nil
}

// Stats implements Backend.
func (b *Local) Stats() CollectionStats {
	p := b.acquire()
	defer b.release(p)
	h := p.epoch.Hash
	return CollectionStats{
		Kind:        "local",
		Epoch:       p.epoch.N,
		Trees:       h.NumTrees(),
		Taxa:        h.Taxa().Len(),
		Fingerprint: fmt.Sprintf("%016x", h.Fingerprint()),
	}
}

// Close releases the current pin (in-flight queries holding references
// keep the epoch alive until they finish).
func (b *Local) Close() {
	b.mu.Lock()
	cur := b.cur
	cur.retired = true
	drop := cur.refs == 0
	b.mu.Unlock()
	if drop {
		cur.epoch.Release()
	}
}

// Distributed serves a collection sharded across a coordinator's
// workers. The request context's deadline propagates into every scatter
// RPC; a deadline expiry surfaces as 504 without declaring workers dead.
type Distributed struct {
	// Coord is the loaded coordinator (Load or LoadSnapshot completed).
	Coord *distrib.Coordinator
	// Epoch is the snapshot epoch the cluster was restored from (0 when
	// the shards were built from reference files).
	Epoch int
}

// Query implements Backend by scatter-gathering over the worker shards.
func (d *Distributed) Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*Answer, error) {
	if v != core.Plain {
		return nil, &StatusError{
			Status: http.StatusBadRequest,
			Err:    fmt.Errorf("serve: distributed collections answer only the plain variant (got %q)", v),
		}
	}
	out, err := d.Coord.AverageRFContext(ctx, collection.FromTrees(trees))
	if err != nil {
		// The coordinator extracts every tree before any worker sees it,
		// so a tree the catalogue cannot take is the client's fault (400).
		// Worker-side failures that survived retry and failover are an
		// upstream problem: 502, so clients can tell "my tree is bad" from
		// "the cluster is hurting".
		status := http.StatusBadGateway
		var ie *distrib.InputError
		if errors.As(err, &ie) {
			status = http.StatusBadRequest
		}
		return nil, &StatusError{Status: httpStatusOf(err, status), Err: err}
	}
	return &Answer{Results: out.Results, Coverage: out.Coverage, Epoch: d.Epoch}, nil
}

// Stats implements Backend.
func (d *Distributed) Stats() CollectionStats {
	return CollectionStats{
		Kind:        "distributed",
		Epoch:       d.Epoch,
		Trees:       d.Coord.RefTrees(),
		Taxa:        d.Coord.TaxaLen(),
		Fingerprint: fmt.Sprintf("%016x", d.Coord.Fingerprint()),
	}
}

// Close implements Backend. The coordinator's connections are owned by
// the caller (it may outlive the catalog), so this is a no-op.
func (d *Distributed) Close() {}

// Catalog is the named-collection registry. All methods are safe for
// concurrent use.
type Catalog struct {
	// Root, when non-empty, lets a register call name a collection
	// without a directory: the store is opened at Root/<name>. Names are
	// validated by ValidName, which forbids separators and a leading
	// dot, so a hostile name cannot escape Root.
	Root string
	// Workers bounds per-query compute parallelism of local backends.
	Workers int

	mu   sync.RWMutex
	cols map[string]Backend
}

// NewCatalog returns an empty catalog.
func NewCatalog(root string, workers int) *Catalog {
	return &Catalog{Root: root, Workers: workers, cols: make(map[string]Backend)}
}

// Register installs backend under name, replacing (and closing) any
// previous entry with that name.
func (c *Catalog) Register(name string, b Backend) error {
	if !ValidName(name) {
		return fmt.Errorf("serve: invalid collection name %q", name)
	}
	c.mu.Lock()
	old := c.cols[name]
	c.cols[name] = b
	n := len(c.cols)
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	collectionsGauge().Set(float64(n))
	return nil
}

// OpenDir opens dir as a local snapshot store and registers it under
// name. If name is already registered to a Local backend, it is
// refreshed onto the store's current epoch instead (the admin-API path
// for "a delta was published, start serving it"). An empty dir resolves
// against Root.
func (c *Catalog) OpenDir(name, dir string) (CollectionStats, error) {
	if !ValidName(name) {
		return CollectionStats{}, fmt.Errorf("serve: invalid collection name %q", name)
	}
	if dir == "" {
		if c.Root == "" {
			return CollectionStats{}, fmt.Errorf("serve: collection %q names no directory and the catalog has no -collections-root", name)
		}
		dir = filepath.Join(c.Root, name)
	}
	c.mu.RLock()
	existing, ok := c.cols[name].(*Local)
	c.mu.RUnlock()
	if ok {
		if _, err := existing.Refresh(); err != nil {
			return CollectionStats{}, err
		}
		st := existing.Stats()
		st.Name = name
		return st, nil
	}
	b, err := OpenLocal(dir, c.Workers)
	if err != nil {
		return CollectionStats{}, err
	}
	if err := c.Register(name, b); err != nil {
		b.Close()
		return CollectionStats{}, err
	}
	st := b.Stats()
	st.Name = name
	return st, nil
}

// Get returns the backend for name.
func (c *Catalog) Get(name string) (Backend, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.cols[name]
	return b, ok
}

// List describes every collection, sorted by name.
func (c *Catalog) List() []CollectionStats {
	c.mu.RLock()
	names := make([]string, 0, len(c.cols))
	for name := range c.cols {
		names = append(names, name)
	}
	backends := make([]Backend, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		backends = append(backends, c.cols[name])
	}
	c.mu.RUnlock()
	out := make([]CollectionStats, len(names))
	for i, b := range backends {
		out[i] = b.Stats()
		out[i].Name = names[i]
	}
	return out
}

// Close closes every backend.
func (c *Catalog) Close() {
	c.mu.Lock()
	cols := c.cols
	c.cols = make(map[string]Backend)
	c.mu.Unlock()
	for _, b := range cols {
		b.Close()
	}
	collectionsGauge().Set(0)
}

// Manifest is the JSON shape of a -collections file: the catalog to
// serve, loaded at startup.
type Manifest struct {
	// Collections lists the local snapshot stores to register.
	Collections []ManifestEntry `json:"collections"`
}

// ManifestEntry names one snapshot store.
type ManifestEntry struct {
	// Name is the catalog key clients query by.
	Name string `json:"name"`
	// Dir is the bfhsnap store directory ("" resolves against the
	// catalog root).
	Dir string `json:"dir"`
}

// LoadManifest registers every collection in the JSON manifest at path.
// Relative Dir values resolve against the manifest's own directory.
func (c *Catalog) LoadManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("serve: manifest %s: %w", path, err)
	}
	if len(m.Collections) == 0 {
		return fmt.Errorf("serve: manifest %s lists no collections", path)
	}
	base := filepath.Dir(path)
	for _, e := range m.Collections {
		dir := e.Dir
		if dir != "" && !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if _, err := c.OpenDir(e.Name, dir); err != nil {
			return fmt.Errorf("serve: manifest %s: collection %q: %w", path, e.Name, err)
		}
	}
	return nil
}
