package fleet

import (
	"fmt"
	"sync"
	"testing"
)

// checkBalance asserts the accounting invariant: admitted − evicted =
// resident, for both entry counts and bytes.
func checkBalance(t *testing.T, c *Cache) {
	t.Helper()
	st := c.Stats()
	if st.Admissions-st.Evictions != int64(st.ResidentEntries) {
		t.Errorf("entry accounting unbalanced: admitted %d − evicted %d != resident %d",
			st.Admissions, st.Evictions, st.ResidentEntries)
	}
	if st.AdmittedBytes-st.EvictedBytes != st.ResidentBytes {
		t.Errorf("byte accounting unbalanced: admitted %d − evicted %d != resident %d",
			st.AdmittedBytes, st.EvictedBytes, st.ResidentBytes)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	c.Add("a", "A", 40, false)
	c.Add("b", "B", 40, false)
	c.Add("c", "C", 40, false) // over budget: evicts a (LRU)
	if _, ok := c.Get("a", false); ok {
		t.Error("a survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k, false); !ok {
			t.Errorf("%s evicted prematurely", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != 40 {
		t.Errorf("evictions = %d/%d bytes, want 1/40", st.Evictions, st.EvictedBytes)
	}
	// Touching b makes c the LRU victim of the next admission.
	c.Get("b", false)
	c.Add("d", "D", 40, false)
	if _, ok := c.Get("c", false); ok {
		t.Error("c survived eviction despite being LRU")
	}
	if _, ok := c.Get("b", false); !ok {
		t.Error("recently used b was evicted")
	}
	checkBalance(t, c)
}

func TestCachePinningBlocksEviction(t *testing.T) {
	c := NewCache(100)
	if v, ok := c.Get("a", true); ok || v != nil {
		t.Error("Get on empty cache succeeded")
	}
	c.Add("a", "A", 60, true) // pinned
	c.Add("b", "B", 60, false)
	// Budget exceeded, but a is pinned: b (the newest) is exempt from
	// its own admission's pass, so nothing evictable remains.
	if _, ok := c.Get("a", false); !ok {
		t.Error("pinned entry evicted")
	}
	if st := c.Stats(); st.Pinned != 1 {
		t.Errorf("pinned = %d, want 1", st.Pinned)
	}
	c.Unpin("a")
	c.Get("b", false)          // a becomes LRU
	c.Add("c", "C", 10, false) // now a is evictable
	if _, ok := c.Get("a", false); ok {
		t.Error("unpinned LRU entry survived")
	}
	checkBalance(t, c)
}

func TestCacheFirstAddWins(t *testing.T) {
	c := NewCache(0)
	if got := c.Add("k", "first", 10, false); got != "first" {
		t.Errorf("first Add returned %v", got)
	}
	if got := c.Add("k", "second", 99, false); got != "first" {
		t.Errorf("losing Add returned %v, want the resident value", got)
	}
	st := c.Stats()
	if st.Admissions != 1 || st.AdmittedBytes != 10 {
		t.Errorf("losing Add was accounted: %d admissions / %d bytes", st.Admissions, st.AdmittedBytes)
	}
	checkBalance(t, c)
}

func TestCacheReadmission(t *testing.T) {
	c := NewCache(50)
	c.Add("a", "A", 40, false)
	c.Add("b", "B", 40, false) // evicts a
	c.Add("a", "A2", 40, false)
	st := c.Stats()
	if st.Readmissions != 1 {
		t.Errorf("readmissions = %d, want 1", st.Readmissions)
	}
	checkBalance(t, c)
}

func TestCacheOversizedEntryStillServes(t *testing.T) {
	c := NewCache(10)
	c.Add("big", "B", 1000, false)
	if _, ok := c.Get("big", false); !ok {
		t.Error("oversized entry not resident after admission")
	}
	// The next admission evicts it.
	c.Add("small", "s", 5, false)
	if _, ok := c.Get("big", false); ok {
		t.Error("oversized entry survived the next admission")
	}
	checkBalance(t, c)
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprint(i), i, 1<<20, false)
	}
	if c.Len() != 100 {
		t.Errorf("unbounded cache evicted down to %d entries", c.Len())
	}
	checkBalance(t, c)
}

// TestCacheConcurrentAccounting hammers the cache from many goroutines
// (run under -race) and checks the invariant afterwards.
func TestCacheConcurrentAccounting(t *testing.T) {
	c := NewCache(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint((g + i) % 32)
				if _, ok := c.Get(key, true); ok {
					c.Unpin(key)
				} else {
					c.Add(key, key, 256, false)
				}
			}
		}(g)
	}
	wg.Wait()
	checkBalance(t, c)
	if st := c.Stats(); st.Pinned != 0 {
		t.Errorf("pins leaked: %d", st.Pinned)
	}
}
