// Package fleet implements the fleet-scale serving subsystem: the
// layer between the optimizer-as-a-service (mpq/internal/serve) and a
// fleet of server processes sharing one corpus of prepared plan sets.
//
// The paper's whole premise is that MPQ plan sets are computed once and
// amortized over many run-time invocations; this package extends that
// amortization beyond a single process and beyond unbounded memory:
//
//   - Cache is a memory-accounted plan-set cache with size-aware LRU
//     eviction — documents report their serialized+index footprint,
//     in-flight entries are pinned against eviction, and the counters
//     balance exactly (admitted − evicted = resident).
//   - SharedStore is the shared plan-set document store: DirStore is a
//     concurrency-safe on-disk implementation (atomic rename writes,
//     content-hashed fsync'd manifest), PeerClient fetches documents
//     over HTTP from sibling servers.
//   - Admission is per-template admission control: one global cap
//     bounds how many expensive Prepares may occupy solver-pool
//     workers concurrently, so hot templates queue behind their own
//     key (the serving layer's singleflight) instead of starving the
//     pool.
//
// See DESIGN.md, "Fleet serving".
package fleet

import "sync"

// CacheStats reports the cache's accounting. The invariant
// AdmittedBytes − EvictedBytes = ResidentBytes (and likewise for entry
// counts) holds at every quiescent point; the serving layer's
// regression test asserts it.
type CacheStats struct {
	// ResidentEntries and ResidentBytes describe the current contents.
	ResidentEntries int
	ResidentBytes   int64
	// Admissions/AdmittedBytes count every entry accepted into the
	// cache; Evictions/EvictedBytes the entries removed to respect the
	// budget. The first Add of a key wins (a racing loser gets the
	// winner's value).
	Admissions    int64
	AdmittedBytes int64
	Evictions     int64
	EvictedBytes  int64
	// Readmissions is the subset of Admissions whose key had been
	// admitted (and evicted) before — cache thrash at a glance.
	Readmissions int64
	// Hits and Misses count Get outcomes.
	Hits   int64
	Misses int64
	// Pinned is the number of currently pinned entries (in-flight use;
	// pinned entries are not evictable).
	Pinned int
	// CapBytes echoes the configured budget (0 = unbounded).
	CapBytes int64
}

// centry is one cached value on the intrusive LRU list.
type centry struct {
	key        string
	val        any
	bytes      int64
	pins       int
	prev, next *centry // LRU neighbors; head = most recently used
}

// Cache is a memory-accounted cache with size-aware LRU eviction. Each
// entry declares its footprint in bytes at admission; when the resident
// total exceeds the budget, least-recently-used unpinned entries are
// evicted until it fits. Pinned entries (in-flight use) are never
// evicted, so the resident total may transiently exceed the budget —
// the budget bounds reclaimable memory, not peak usage. All methods are
// safe for concurrent use.
type Cache struct {
	budget int64 // 0 = unbounded

	mu         sync.Mutex
	entries    map[string]*centry
	head, tail *centry
	everSeen   map[string]bool // keys ever admitted, for Readmissions
	stats      CacheStats
}

// NewCache returns a cache with the given byte budget (0 = unbounded).
func NewCache(budget int64) *Cache {
	if budget < 0 {
		budget = 0
	}
	return &Cache{
		budget:   budget,
		entries:  make(map[string]*centry),
		everSeen: make(map[string]bool),
	}
}

// Get returns the value cached under key, marking it most recently
// used. With pin, the entry is additionally pinned against eviction
// until a matching Unpin — callers pin for the duration of a pick so
// an entry cannot be evicted (and its footprint double-admitted by a
// racing reload) while in use.
func (c *Cache) Get(key string, pin bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	if pin {
		e.pins++
	}
	return e.val, true
}

// Unpin releases one pin of key. Unpinning may make the entry
// evictable again, but eviction only happens on the next admission —
// an unpin never evicts synchronously.
func (c *Cache) Unpin(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.pins > 0 {
		e.pins--
	}
}

// Add admits val under key with the given footprint and returns the
// resident value: the first Add of a key wins, so a racing loser gets
// the winner's value back (and its own value is dropped without ever
// being accounted). With pin, the returned resident entry is pinned.
// Admission evicts least-recently-used unpinned entries until the
// resident total fits the budget again; the just-admitted entry is
// exempt from its own admission's eviction pass, so an oversized
// document still serves (the budget is then exceeded until the next
// admission).
func (c *Cache) Add(key string, val any, bytes int64, pin bool) any {
	if bytes < 0 {
		bytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		if pin {
			e.pins++
		}
		return e.val
	}
	e := &centry{key: key, val: val, bytes: bytes}
	if pin {
		e.pins++
	}
	c.entries[key] = e
	c.pushFront(e)
	c.stats.Admissions++
	c.stats.AdmittedBytes += bytes
	c.stats.ResidentEntries++
	c.stats.ResidentBytes += bytes
	if c.everSeen[key] {
		c.stats.Readmissions++
	}
	c.everSeen[key] = true
	if c.budget > 0 {
		c.evictLocked(e)
	}
	return e.val
}

// evictLocked removes least-recently-used unpinned entries (other than
// keep) until the resident total fits the budget or nothing evictable
// remains.
func (c *Cache) evictLocked(keep *centry) {
	e := c.tail
	for c.stats.ResidentBytes > c.budget && e != nil {
		prev := e.prev
		if e != keep && e.pins == 0 {
			c.removeLocked(e)
		}
		e = prev
	}
}

// removeLocked unlinks e and updates the accounting.
func (c *Cache) removeLocked(e *centry) {
	delete(c.entries, e.key)
	c.unlink(e)
	c.stats.Evictions++
	c.stats.EvictedBytes += e.bytes
	c.stats.ResidentEntries--
	c.stats.ResidentBytes -= e.bytes
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.ResidentEntries
}

// Stats returns a snapshot of the accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.CapBytes = c.budget
	for e := c.head; e != nil; e = e.next {
		if e.pins > 0 {
			st.Pinned++
		}
	}
	return st
}

// Range calls fn for every resident entry (most recently used first)
// while holding the cache lock; fn must not call back into the cache.
func (c *Cache) Range(fn func(key string, val any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil; e = e.next {
		fn(e.key, e.val)
	}
}

// LRU list plumbing. head is the most recently used entry.

func (c *Cache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *centry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
