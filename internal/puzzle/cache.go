package puzzle

import (
	"sync"
	"time"
)

// ReplayCache remembers redeemed challenge seeds until they expire, so each
// issued challenge can be used at most once — the paper's defense against
// pre-computation and replay. Entries evict lazily on expiry; when the
// cache is full, the entry closest to expiring is evicted first, which is
// the cheapest safe choice (it protects the remaining window of the
// longest-lived seeds).
//
// ReplayCache is safe for concurrent use.
type ReplayCache struct {
	mu      sync.Mutex
	entries map[[SeedSize]byte]time.Time
	order   expiryHeap
	max     int
	now     func() time.Time
}

// NewReplayCache returns a cache holding at most max seeds. The now
// function may be nil, in which case time.Now is used.
func NewReplayCache(max int, now func() time.Time) *ReplayCache {
	if max < 1 {
		max = 1
	}
	if now == nil {
		now = time.Now
	}
	return &ReplayCache{
		entries: make(map[[SeedSize]byte]time.Time, max),
		max:     max,
		now:     now,
	}
}

// Remember records seed as redeemed until expires. It reports false if the
// seed was already present (a replay), true if the seed was fresh.
func (c *ReplayCache) Remember(seed [SeedSize]byte, expires time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()

	now := c.now()
	// Amortized expiry: drop at most a few expired entries per call so the
	// lock hold time stays bounded on the verify hot path. Correctness
	// does not depend on eager sweeping — the replay check below compares
	// expiries directly — and capacity pressure is handled by eviction.
	c.sweepLocked(now, maxSweepPerOp)

	if until, ok := c.entries[seed]; ok && until.After(now) {
		return false
	}
	for len(c.entries) >= c.max {
		c.evictSoonestLocked()
	}
	c.entries[seed] = expires
	c.order.push(expiryEntry{seed: seed, expires: expires})
	return true
}

// Contains reports whether seed is currently remembered (and unexpired).
func (c *ReplayCache) Contains(seed [SeedSize]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	until, ok := c.entries[seed]
	return ok && until.After(c.now())
}

// Len reports the number of live (unexpired) entries.
func (c *ReplayCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.now(), len(c.order))
	return len(c.entries)
}

// maxSweepPerOp bounds how many expired entries one Remember call drops,
// keeping the critical section short under heavy verify traffic.
const maxSweepPerOp = 8

// sweepLocked drops up to limit expired entries from the front of the
// expiry order.
func (c *ReplayCache) sweepLocked(now time.Time, limit int) {
	for n := 0; n < limit && len(c.order) > 0 && !c.order[0].expires.After(now); n++ {
		e := c.order.pop()
		// Only delete if the map still holds this exact registration; a
		// seed can be re-remembered with a later expiry after expiring.
		if until, ok := c.entries[e.seed]; ok && until.Equal(e.expires) {
			delete(c.entries, e.seed)
		}
	}
}

// evictSoonestLocked removes the live entry closest to expiring.
func (c *ReplayCache) evictSoonestLocked() {
	for len(c.order) > 0 {
		e := c.order.pop()
		if until, ok := c.entries[e.seed]; ok && until.Equal(e.expires) {
			delete(c.entries, e.seed)
			return
		}
	}
	// Heap drained but map non-empty cannot happen: every map entry has a
	// corresponding heap entry. Guard anyway to keep the invariant local.
	for k := range c.entries {
		delete(c.entries, k)
		return
	}
}

// expiryEntry orders seeds by expiry for eviction.
type expiryEntry struct {
	seed    [SeedSize]byte
	expires time.Time
}

// expiryHeap is a min-heap on expiry time. It is typed rather than driven
// through container/heap, whose any-based Push and Pop box every entry
// onto the heap: push and pop here allocate nothing once the backing
// array has reached the cache's capacity.
type expiryHeap []expiryEntry

func (h expiryHeap) less(i, j int) bool { return h[i].expires.Before(h[j].expires) }

// push adds e and restores the heap order.
func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the entry with the soonest expiry. The heap
// must not be empty.
func (h *expiryHeap) pop() expiryEntry {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q.less(l, least) {
			least = l
		}
		if r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}
