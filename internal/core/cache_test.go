package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// cacheTestKey returns a TopoKey pinned to a chosen shard: shardOf selects
// by Hi's low bits, so Hi ≡ shard (mod #shards) and Lo carries the id.
func cacheTestKey(shard, id uint64, shards uint64) TopoKey {
	return TopoKey{Hi: shard + id*shards, Lo: id ^ 0xabcdef}
}

func TestQueryCacheCapBounds(t *testing.T) {
	cases := []struct {
		entries  int
		bytes    int64
		wantCap  int
		wantDesc string
	}{
		{0, 0, defaultCacheEntries, "defaults"},
		{100, 0, 100, "entry bound"},
		{0, cacheEntryBytes * 4, 4, "byte bound"},
		{100, cacheEntryBytes * 8, 8, "stricter byte bound wins"},
		{8, cacheEntryBytes * 100, 8, "stricter entry bound wins"},
		{1, 1, 1, "never below one entry"},
	}
	for _, c := range cases {
		got := NewQueryCache(c.entries, c.bytes).Cap()
		if got != c.wantCap {
			t.Errorf("NewQueryCache(%d, %d).Cap() = %d, want %d (%s)",
				c.entries, c.bytes, got, c.wantCap, c.wantDesc)
		}
	}
}

// TestQueryCacheAllocatesAsItFills: capacity is a bound, not a
// reservation. A default cache (65,536 entries over 16 shards) that sees
// eight results must cost about eight entries, not every shard's full
// map.
func TestQueryCacheAllocatesAsItFills(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewQueryCache(0, 0)
	shards := uint64(len(c.shards))
	for id := uint64(0); id < 8; id++ {
		c.Put(cacheTestKey(id%shards, id, shards), Plain, float64(id))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a default cache with 8 entries allocated %d bytes, want < %d", got, 64<<10)
	}
	if c.Len() != 8 {
		t.Fatalf("Len() = %d, want 8", c.Len())
	}
}

// TestQueryCacheFillPastCap fills a 16-entry cache with ten times as many
// distinct keys: the lazily grown shards must still stop at their cap,
// and every insert past it must be counted as an eviction.
func TestQueryCacheFillPastCap(t *testing.T) {
	c := NewQueryCache(16, 0)
	shards := uint64(len(c.shards))
	const puts = 160
	for id := uint64(0); id < puts; id++ {
		c.Put(cacheTestKey(id%shards, id, shards), Plain, float64(id))
		if c.Len() > c.Cap() {
			t.Fatalf("after %d puts Len() = %d exceeds Cap() = %d", id+1, c.Len(), c.Cap())
		}
	}
	st := c.Stats()
	if st.Entries != c.Cap() {
		t.Errorf("entries = %d after %d puts, want the cap %d", st.Entries, puts, c.Cap())
	}
	if want := uint64(puts - c.Cap()); st.Evictions != want {
		t.Errorf("evictions = %d, want %d", st.Evictions, want)
	}
	// The most recent key of each shard survives; the oldest is gone.
	last := cacheTestKey((puts-1)%shards, puts-1, shards)
	if v, ok := c.Get(last, Plain); !ok || v != puts-1 {
		t.Errorf("Get(last) = %v,%v, want %v,true", v, ok, puts-1)
	}
	if _, ok := c.Get(cacheTestKey(0, 0, shards), Plain); ok {
		t.Error("the first key survived 159 later inserts")
	}
}

// TestQueryCacheLRU drives one shard through insert, promote, update, and
// evict, checking the least-recently-used entry is always the casualty.
func TestQueryCacheLRU(t *testing.T) {
	c := NewQueryCache(2, 0) // 2 entries → 2 shards of capacity 1
	if len(c.shards) != 2 || c.Cap() != 2 {
		t.Fatalf("shards=%d cap=%d, want 2/2", len(c.shards), c.Cap())
	}
	// Work entirely in shard 0 so one entry of capacity is in play.
	k1 := cacheTestKey(0, 1, 2)
	k2 := cacheTestKey(0, 2, 2)
	c.Put(k1, Plain, 1.0)
	if v, ok := c.Get(k1, Plain); !ok || v != 1.0 {
		t.Fatalf("Get(k1) = %v,%v after Put", v, ok)
	}
	// Same fingerprint, different variant: a distinct entry, and the
	// shard's capacity-one LRU evicts the Plain result.
	c.Put(k1, Normalized, 0.25)
	if _, ok := c.Get(k1, Plain); ok {
		t.Fatal("Plain entry survived eviction by Normalized entry")
	}
	if v, ok := c.Get(k1, Normalized); !ok || v != 0.25 {
		t.Fatalf("Get(k1, Normalized) = %v,%v", v, ok)
	}
	// Update-in-place must not evict, and must return the new value.
	c.Put(k1, Normalized, 0.5)
	if v, ok := c.Get(k1, Normalized); !ok || v != 0.5 {
		t.Fatalf("after update: %v,%v, want 0.5,true", v, ok)
	}
	// A new key in the full shard evicts the old one.
	c.Put(k2, Plain, 2.0)
	if _, ok := c.Get(k1, Normalized); ok {
		t.Fatal("LRU entry survived insert at capacity")
	}
	if v, ok := c.Get(k2, Plain); !ok || v != 2.0 {
		t.Fatalf("Get(k2) = %v,%v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 1 || c.Len() != 1 {
		t.Errorf("entries = %d/%d, want 1", st.Entries, c.Len())
	}
}

// TestQueryCacheLRUOrder fills a capacity-3 shard, touches the oldest
// entry, and checks the untouched middle entry is evicted instead.
func TestQueryCacheLRUOrder(t *testing.T) {
	c := NewQueryCache(3, 0) // 3 entries → 2 shards (16 halves to ≤3)
	shards := uint64(len(c.shards))
	// Shard 0 has cap 2 (3/2 rounded up for shard 0).
	if c.shards[0].cap != 2 {
		t.Fatalf("shard 0 cap = %d, want 2", c.shards[0].cap)
	}
	k := func(id uint64) TopoKey { return cacheTestKey(0, id, shards) }
	c.Put(k(1), Plain, 1)
	c.Put(k(2), Plain, 2)
	c.Get(k(1), Plain)    // promote k1: k2 is now LRU
	c.Put(k(3), Plain, 3) // evicts k2
	if _, ok := c.Get(k(2), Plain); ok {
		t.Fatal("promoted entry's junior survived; LRU order broken")
	}
	for _, id := range []uint64{1, 3} {
		if v, ok := c.Get(k(id), Plain); !ok || v != float64(id) {
			t.Fatalf("Get(k%d) = %v,%v", id, v, ok)
		}
	}
}

// TestQueryCacheHammer is the race/eviction hammer: goroutines slam a
// capacity-2 cache with a keyspace far larger than capacity, so every
// operation contends and eviction churns constantly. Each key has one
// well-known value; any hit returning anything else means a torn or
// misfiled entry. Run under -race in CI.
func TestQueryCacheHammer(t *testing.T) {
	c := NewQueryCache(2, 0)
	shards := uint64(len(c.shards))
	const (
		workers = 8
		keys    = 64
		rounds  = 2000
	)
	valueOf := func(id uint64) float64 { return float64(id)*1.5 + 0.25 }
	var wg sync.WaitGroup
	gets := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := uint64((i*7 + w*13) % keys)
				k := cacheTestKey(id%shards, id, shards)
				if v, ok := c.Get(k, Plain); ok {
					if v != valueOf(id) {
						t.Errorf("hit for key %d returned %v, want %v", id, v, valueOf(id))
					}
				} else {
					c.Put(k, Plain, valueOf(id))
				}
				gets[w]++
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, g := range gets {
		total += g
	}
	st := c.Stats()
	if st.Hits+st.Misses != total {
		t.Errorf("hits %d + misses %d != gets %d", st.Hits, st.Misses, total)
	}
	if st.Evictions == 0 {
		t.Error("no evictions on a capacity-2 cache under 64-key churn")
	}
	if st.Entries > c.Cap() {
		t.Errorf("entries %d exceed capacity %d", st.Entries, c.Cap())
	}
}

// TestQueryCacheChaosPutDelay arms a delay on every cache insert,
// stretching the compute-to-publish window while readers race the
// writers: a half-written entry would surface as a wrong hit value.
func TestQueryCacheChaosPutDelay(t *testing.T) {
	defer faultinject.Disarm()
	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointCachePut,
		Kind:  faultinject.KindDelay,
		Times: -1,
		Delay: 100 * time.Microsecond,
	})
	c := NewQueryCache(4, 0)
	shards := uint64(len(c.shards))
	valueOf := func(id uint64) float64 { return math.Sqrt(float64(id + 2)) }
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := uint64((i + w*5) % 16)
				k := cacheTestKey(id%shards, id, shards)
				if v, ok := c.Get(k, Plain); ok {
					if v != valueOf(id) {
						t.Errorf("chaos hit for key %d returned %v, want %v", id, v, valueOf(id))
					}
				} else {
					c.Put(k, Plain, valueOf(id))
				}
			}
		}(w)
	}
	wg.Wait()
	if hits := faultinject.HitCount(faultinject.PointCachePut); hits == 0 {
		t.Fatal("delay plan never fired — injection point unplumbed")
	}
}

// TestQueryCacheChaosPutError: an armed error plan drops every insert, so
// the cache stays empty — and the prober wrapped around it must still
// answer every query correctly, just without ever hitting.
func TestQueryCacheChaosPutError(t *testing.T) {
	defer faultinject.Disarm()
	trees, ts := randomCollection(3, 40, 30)
	h := buildHash(t, trees, ts)
	want, err := h.AverageRFOne(trees[0], QueryOptions{RequireComplete: true})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.Plan{
		Point: faultinject.PointCachePut,
		Kind:  faultinject.KindError,
		Times: -1,
	})
	cache := NewQueryCache(0, 0)
	for i := 0; i < 3; i++ {
		got, err := h.AverageRFOne(trees[0], QueryOptions{RequireComplete: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d: cached-path answer %v != uncached %v", i, got, want)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries though every insert was dropped", cache.Len())
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 0/3", st.Hits, st.Misses)
	}
}
