package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// QueryCache is the bounded, sharded LRU result cache of the query side:
// it maps (topology fingerprint, variant) to an already-computed average
// RF, so exact topological repeats — bootstrap replicates, MCMC posterior
// samples — are answered without touching the frequency hash at all. A
// cached value is the bit pattern the uncached fold produced, so cache
// hits are bit-identical to recomputation (the equivalence wall in
// cache_equiv_test.go enforces this).
//
// Only the Plain and Normalized variants are cached: their results depend
// on topology alone. Weighted results also depend on the query tree's
// branch lengths, which the topology fingerprint deliberately ignores, so
// weighted probes — like information-content ones — always take the
// uncached path.
//
// The cache is safe for concurrent use: each shard holds its own mutex,
// entry map, and intrusive LRU list, and every entry is written in full
// under the shard lock — a reader can observe a missing entry, never a
// partially-written one (the race/eviction hammer churns this under
// -race). Capacity is enforced per shard, in entries and — via the fixed
// per-entry footprint — in bytes. Capacity is a bound, not a reservation:
// each shard's map and node arena grow with use, so a cache that sees a
// handful of queries costs a handful of entries, however large its cap.
type QueryCache struct {
	shards []cacheShard
	mask   uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheEntryBytes is the accounted footprint of one cache entry: the node
// (key, value, two list links), its map slot, and amortized map overhead.
// Entries are fixed-size, so the byte cap reduces to an entry cap.
const cacheEntryBytes = 96

// Default capacity bounds when NewQueryCache is given zeros.
const (
	defaultCacheEntries = 1 << 16
	defaultCacheBytes   = 8 << 20
)

// cacheKey identifies one cached result.
type cacheKey struct {
	k TopoKey
	v Variant
}

// cacheNode is one LRU list element; prev/next index the shard's nodes
// slice (-1 terminates the list).
type cacheNode struct {
	key        cacheKey
	val        float64
	prev, next int
}

// cacheShard is one lock domain: a map from key to node index plus an
// intrusive doubly-linked LRU list over a node arena that grows up to cap.
type cacheShard struct {
	mu         sync.Mutex
	idx        map[cacheKey]int
	nodes      []cacheNode
	head, tail int // most / least recently used; -1 when empty
	cap        int
}

// NewQueryCache returns a cache bounded by maxEntries entries and
// (approximately) maxBytes bytes of accounted footprint; zero or negative
// values select the defaults (65536 entries, 8 MiB). The effective
// capacity is the stricter of the two bounds, never below one entry.
func NewQueryCache(maxEntries int, maxBytes int64) *QueryCache {
	if maxEntries <= 0 {
		maxEntries = defaultCacheEntries
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	if byBytes := int(maxBytes / cacheEntryBytes); byBytes < maxEntries {
		maxEntries = byBytes
	}
	if maxEntries < 1 {
		maxEntries = 1
	}
	// Shard for lock spreading, but never so finely that a shard's slice
	// of the capacity rounds to zero entries.
	ns := 16
	for ns > 1 && ns > maxEntries {
		ns /= 2
	}
	c := &QueryCache{shards: make([]cacheShard, ns), mask: uint64(ns - 1)}
	for i := range c.shards {
		per := maxEntries / ns
		if i < maxEntries%ns {
			per++
		}
		c.shards[i] = cacheShard{head: -1, tail: -1, cap: per}
	}
	return c
}

// shardOf selects the shard by the fingerprint's high half — foldTopoKey
// avalanches it, so any bit slice spreads evenly.
func (c *QueryCache) shardOf(k TopoKey) *cacheShard {
	return &c.shards[k.Hi&c.mask]
}

// Get returns the cached average for (k, v) and whether it was present,
// promoting a hit to most-recently-used.
func (c *QueryCache) Get(k TopoKey, v Variant) (float64, bool) {
	s := c.shardOf(k)
	key := cacheKey{k: k, v: v}
	s.mu.Lock()
	i, ok := s.idx[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		mCacheMisses.Inc()
		return 0, false
	}
	s.unlink(i)
	s.pushFront(i)
	val := s.nodes[i].val
	s.mu.Unlock()
	c.hits.Add(1)
	mCacheHits.Inc()
	return val, true
}

// Put inserts (k, v) → avg, evicting the shard's least-recently-used
// entry when the shard is at capacity. Concurrent Puts of the same key
// are benign: both goroutines computed the value from the same immutable
// hash, so the bit patterns are identical whichever lands last.
func (c *QueryCache) Put(k TopoKey, v Variant, avg float64) {
	// The injection point sits before the lock: an armed delay stretches
	// the compute-to-publish window without serializing the shard, an
	// error plan drops the insert (the computed result is still returned
	// to the caller — a lost insert costs a future miss, never a wrong
	// answer), and a crash models dying with a result computed but not
	// yet cached.
	if faultinject.Hit(faultinject.PointCachePut) != nil {
		return
	}
	s := c.shardOf(k)
	key := cacheKey{k: k, v: v}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.idx[key]; ok {
		s.nodes[i].val = avg
		s.unlink(i)
		s.pushFront(i)
		return
	}
	if s.idx == nil {
		s.idx = make(map[cacheKey]int)
	}
	var i int
	if len(s.nodes) < s.cap {
		i = len(s.nodes)
		s.nodes = append(s.nodes, cacheNode{})
	} else {
		// Recycle the least-recently-used node.
		i = s.tail
		s.unlink(i)
		delete(s.idx, s.nodes[i].key)
		c.evictions.Add(1)
	}
	s.nodes[i] = cacheNode{key: key, val: avg, prev: -1, next: -1}
	s.idx[key] = i
	s.pushFront(i)
}

// unlink removes node i from the shard's LRU list.
func (s *cacheShard) unlink(i int) {
	n := &s.nodes[i]
	if n.prev >= 0 {
		s.nodes[n.prev].next = n.next
	} else if s.head == i {
		s.head = n.next
	}
	if n.next >= 0 {
		s.nodes[n.next].prev = n.prev
	} else if s.tail == i {
		s.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

// pushFront makes node i the most recently used.
func (s *cacheShard) pushFront(i int) {
	n := &s.nodes[i]
	n.prev, n.next = -1, s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

// Len returns the number of cached results.
func (c *QueryCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.idx)
		s.mu.Unlock()
	}
	return n
}

// Cap returns the total entry capacity across shards.
func (c *QueryCache) Cap() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// CacheStats is a point-in-time tally of cache traffic.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Stats snapshots the cache's counters. Hits+Misses equals the number of
// Get calls — the accounting invariant the eviction hammer asserts.
func (c *QueryCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
