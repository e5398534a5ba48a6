package puzzle

import (
	"math"
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
// Memory is allocated only as seeds are claimed, so a pipeline that never
// redeems holds none. Each claimed seed costs a map entry from seed to
// expiry (Unix nanoseconds) and one 24-byte entry in a min-heap on expiry;
// neither holds a pointer for the garbage collector to scan. A full cache
// of 65 536 seeds holds at most 96 B per seed, whatever order the claims
// arrive in: the heap holds the live seeds plus the few stale entries the
// sweep has not reached yet. When a sweep leaves fewer than a quarter of
// the set's peak count live, the live seeds move to a fresh map and heap,
// so memory a flood filled is given back once its seeds expire. A claim
// costs O(log n), amortized over the moves.
//
// ReplayCache is safe for concurrent use.
type ReplayCache struct {
	mu      sync.Mutex
	entries map[[SeedSize]byte]int64
	// order may hold stale entries: a seed's earlier registration, left
	// behind when the seed was claimed again after expiring.
	order expiryHeap
	max   int
	now   func() time.Time
	// peak is the most seeds held since the map and heap were last
	// allocated.
	peak int
	// liveEvictions counts seeds evicted before their expiry: each one
	// is a redeemed token that verifies again.
	liveEvictions uint64
}

// NewReplayCache returns a cache holding at most max seeds. The now
// function, read by Remember and Len, may be nil, in which case time.Now
// is used; a Verifier passes its own instant instead.
func NewReplayCache(max int, now func() time.Time) *ReplayCache {
	if max < 1 {
		max = 1
	}
	if now == nil {
		now = time.Now
	}
	return &ReplayCache{
		entries: make(map[[SeedSize]byte]int64),
		max:     max,
		now:     now,
	}
}

// Remember records seed as redeemed until expires, at the cache's own
// clock. It reports false if the seed was already present (a replay),
// true if the seed was fresh.
func (c *ReplayCache) Remember(seed [SeedSize]byte, expires time.Time) bool {
	return c.rememberAt(seed, expires, c.now())
}

// rememberAt is Remember at the caller's instant now. A seed stays
// claimed through its expiry instant itself, the last instant the
// verifier's freshness check still accepts its token.
func (c *ReplayCache) rememberAt(seed [SeedSize]byte, expires, now time.Time) bool {
	exp, at := unixNano(expires), unixNano(now)
	c.mu.Lock()
	defer c.mu.Unlock()

	// Amortized expiry: drop at most a few expired entries per call so the
	// lock hold time stays bounded on the verify hot path. Correctness
	// does not depend on eager sweeping — the replay check below compares
	// expiries directly — and capacity pressure is handled by eviction.
	c.sweepLocked(at, maxSweepPerOp)

	if until, ok := c.entries[seed]; ok && at <= until {
		return false
	}
	for len(c.entries) >= c.max {
		if exp := c.evictSoonestLocked(); at <= exp {
			c.liveEvictions++
		}
	}
	c.entries[seed] = exp
	c.order.push(expiryEntry{seed: seed, exp: exp})
	c.peak = max(c.peak, len(c.entries))
	return true
}

// containsAt reports whether seed is remembered and unexpired at now.
func (c *ReplayCache) containsAt(seed [SeedSize]byte, now time.Time) bool {
	at := unixNano(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	until, ok := c.entries[seed]
	return ok && at <= until
}

// Len reports the number of live (unexpired) entries.
func (c *ReplayCache) Len() int {
	at := unixNano(c.now())
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(at, len(c.order))
	return len(c.entries)
}

// LiveEvictions reports how many seeds the cache has evicted while they
// were still unexpired, to make room for a new claim. Each reopened a
// redeemed token for the rest of its lifetime.
func (c *ReplayCache) LiveEvictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveEvictions
}

// maxSweepPerOp bounds how many expired entries one Remember call drops,
// keeping the critical section short under heavy verify traffic.
const maxSweepPerOp = 8

// Instants outside time.Time's int64 nanosecond range (the years
// 1678–2262), where UnixNano is undefined, saturate to its ends.
var (
	minUnixNano = time.Unix(0, math.MinInt64)
	maxUnixNano = time.Unix(0, math.MaxInt64)
)

// unixNano returns t in Unix nanoseconds, saturated to the int64 range.
// Comparing two results is comparing the wall-clock instants, which is
// what the cache's expiry predicate always did: a verifier's expiry comes
// off the wire and carries no monotonic reading.
func unixNano(t time.Time) int64 {
	switch {
	case t.Before(minUnixNano):
		return math.MinInt64
	case t.After(maxUnixNano):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// dropLocked deletes e's seed if the map still holds this exact
// registration; a seed can be re-remembered with a later expiry after
// expiring, and the stale heap entry must not delete it. It reports
// whether it deleted.
func (c *ReplayCache) dropLocked(e expiryEntry) bool {
	if until, ok := c.entries[e.seed]; ok && until == e.exp {
		delete(c.entries, e.seed)
		return true
	}
	return false
}

// sweepLocked drops up to limit entries that expired before now from the
// front of the expiry order.
func (c *ReplayCache) sweepLocked(now int64, limit int) {
	for n := 0; n < limit && len(c.order) > 0 && now > c.order[0].exp; n++ {
		c.dropLocked(c.order.pop())
	}
	if c.peak >= minShrinkPeak && len(c.entries) < c.peak/4 {
		c.shrinkLocked()
	}
}

// minShrinkPeak is the smallest peak count a replay set shrinks from;
// below it the memory a shrink could give back is not worth the copy.
const minShrinkPeak = 1024

// shrinkLocked moves the live seeds into a fresh map and heap sized for
// them, dropping the heap's stale entries on the way.
func (c *ReplayCache) shrinkLocked() {
	entries := make(map[[SeedSize]byte]int64, len(c.entries))
	order := make(expiryHeap, 0, len(c.entries))
	for _, e := range c.order {
		if until, ok := c.entries[e.seed]; ok && until == e.exp {
			entries[e.seed] = e.exp
			order = append(order, e)
		}
	}
	// The filtered array is no longer a heap in general: rebuild it
	// bottom-up, in O(n).
	for i := len(order)/2 - 1; i >= 0; i-- {
		order.down(i)
	}
	c.entries, c.order, c.peak = entries, order, len(entries)
}

// evictSoonestLocked removes the entry closest to expiring and returns
// its expiry.
func (c *ReplayCache) evictSoonestLocked() int64 {
	for len(c.order) > 0 {
		if e := c.order.pop(); c.dropLocked(e) {
			return e.exp
		}
	}
	// Heap drained but map non-empty cannot happen: every map entry has a
	// corresponding heap entry. Guard anyway to keep the invariant local.
	for k, exp := range c.entries {
		delete(c.entries, k)
		return exp
	}
	return math.MinInt64
}

// expiryEntry orders seeds by expiry, in Unix nanoseconds. It holds no
// pointer, so the heap is not scanned by the collector.
type expiryEntry struct {
	seed [SeedSize]byte
	exp  int64
}

// expiryHeap is a min-heap on expiry. It is typed rather than driven
// through container/heap, whose any-based Push and Pop box every entry
// onto the heap: push and pop here allocate nothing once the backing
// array has reached its largest size.
type expiryHeap []expiryEntry

func (h expiryHeap) less(i, j int) bool { return h[i].exp < h[j].exp }

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
	*h = q[:n]
	h.down(0)
	return top
}

// down moves the entry at i toward the leaves until neither child
// expires sooner.
func (h expiryHeap) down(i int) {
	for n := len(h); ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && h.less(l, least) {
			least = l
		}
		if r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
