package features

import (
	cryptorand "crypto/rand"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Behavioral attribute names produced by Tracker.AttributesVector. They carry a
// "live_" prefix so they never collide with static feed attributes when
// merged.
const (
	AttrRequestRate   = "live_req_per_sec"
	AttrFailRatio     = "live_fail_ratio"
	AttrDistinctPaths = "live_distinct_paths"
	AttrPathEntropy   = "live_path_entropy"
	AttrInterArrival  = "live_inter_arrival_ms"
	AttrTotalRequests = "live_total_requests"

	// AttrSolveCredit is the IP's verified-solve evidence: the sum of the
	// difficulties of challenges it solved and redeemed through Verify,
	// decayed exponentially with the tracker's evidence half-life. It is
	// what lets a misscored legitimate client *earn* a better effective
	// score (reputation.Decay reads it) instead of sitting in the
	// false-positive tail for the whole tracker window.
	AttrSolveCredit = "live_solve_credit"

	// AttrFailStreak counts consecutive failed verifications (bad nonce,
	// tampered challenge, replay) since the IP's last successful solve —
	// direct protocol-abuse evidence that cancels redemption.
	AttrFailStreak = "live_fail_streak"

	// AttrFailRatioTotal is the failed fraction of *all* requests observed
	// for the IP (entry lifetime), where AttrFailRatio covers only the
	// sliding window. Redemption gates on the lifetime ratio: a
	// slow-and-low prober fits whole clean spells inside a short window,
	// but its lifetime ratio converges on its true failure rate within a
	// handful of requests and stays there.
	AttrFailRatioTotal = "live_fail_ratio_total"
)

// behaviorAttrCount is the number of behavioral attributes the tracker
// produces; behaviorAttrNames fixes their order in a behaviorSummary.
const behaviorAttrCount = 9

var behaviorAttrNames = [behaviorAttrCount]string{
	AttrRequestRate,
	AttrFailRatio,
	AttrDistinctPaths,
	AttrPathEntropy,
	AttrInterArrival,
	AttrTotalRequests,
	AttrSolveCredit,
	AttrFailStreak,
	AttrFailRatioTotal,
}

// DefaultEvidenceHalfLife is the solve-credit decay half-life when
// WithEvidenceHalfLife is not given: long enough that a client solving a
// puzzle a minute sustains its credit, short enough that redemption earned
// during one visit does not outlive the behavioral window by an order of
// magnitude.
const DefaultEvidenceHalfLife = 5 * time.Minute

// RequestInfo is the normalized description of one incoming request, the
// unit the tracker observes.
type RequestInfo struct {
	// IP identifies the client (the tracker's key).
	IP string

	// Path is the requested resource path.
	Path string

	// At is the arrival time.
	At time.Time

	// Failed marks requests the server answered with a client-error status
	// (failed auth, malformed input) — a strong abuse signal.
	Failed bool
}

// Slab-layout capacity constants. Per-IP state lives in fixed-size records
// inside per-shard backing arrays (no per-entry heap objects beyond the IP
// string itself), which fixes both sizes at compile time.
const (
	// maxSlotBuckets is the inline ring capacity of the two sliding
	// windows in a slot, and therefore the largest bucket count a Tracker
	// accepts (WithWindow). It equals the default bucket count.
	maxSlotBuckets = 12

	// inlinePaths is the open-addressed per-path table inlined in a slot.
	// An IP's first inlinePaths distinct paths are tracked inline; further
	// distinct paths (up to maxPaths) spill to a small per-entry slice —
	// rare in practice, since most clients touch a handful of endpoints.
	inlinePaths = 4

	// noSlot is the nil slab index (freelist end, empty LRU list).
	noSlot = ^uint32(0)
)

// Tracker maintains bounded per-IP behavioral state and summarizes it as
// attributes for the scorer. Memory is bounded two ways: at most capacity
// IPs (LRU-evicted) and at most maxPaths distinct paths tracked per IP.
//
// State is lock-striped across a power-of-two number of shards, each with
// its own mutex, index map, and slab arena; an IP's shard is chosen by
// FNV-1a hash, so concurrent Observe/AttributesVector calls for different
// clients do not serialize on one lock. The capacity bound is exact:
// capacity is distributed across the shards (per-shard quotas differ by at
// most one entry) and each shard LRU-evicts beyond its own quota, so the
// total never exceeds capacity — though eviction order is per-shard LRU,
// not global.
//
// Entries are fixed-size records (entrySlot) in a per-shard []entrySlot
// slab addressed by uint32 index: the two ring windows are inline arrays,
// the LRU is intrusive prev/next indices, and evicted slots recycle
// through a freelist. The only per-entry heap allocation is the IP string
// (shared with the index map key), which is what keeps a million tracked
// clients at ~1 GC-visible object each instead of ~11.
//
// Tracker is safe for concurrent use.
type Tracker struct {
	shards    []trackerShard
	shardMask uint32
	// shardSeed keys the shard hash per tracker, so an attacker cannot
	// precompute IPs that collide into a victim's shard and flush its
	// behavioral history with only quota-many addresses.
	shardSeed uint32

	capacity  int
	span      time.Duration
	buckets   int
	bucketNS  int64 // span/buckets in nanoseconds (window epoch unit)
	maxPaths  int
	shardsOpt int
	halfLife  time.Duration // solve-credit decay half-life
	staleness time.Duration // summary cache tolerance (0 = always fresh)

	// deltaSeq is the tracker-global change sequence behind delta evidence
	// export: every exported-field mutation (request counters, solve
	// credit) takes the next value under its shard lock and stamps it on
	// the entry, so ExportEvidenceSince can hand consumers a watermark
	// that is safe against concurrent writers (a change numbered at or
	// below a loaded watermark is already visible to a scan that takes the
	// shard locks afterward).
	deltaSeq atomic.Uint64

	// wb is the per-shard write-back buffer plane (one buffer per lock
	// stripe, same index as shards), used by the *Buffered record paths.
	wb []wbShard

	// layouts caches the behavioral attrs' slots per schema seen (keyed
	// by schema pointer identity). The slice is
	// immutable once published — lookups are one atomic load plus a scan
	// of at most maxTrackerLayouts entries — and layoutMu serializes the
	// copy-on-write slow path that appends a newly resolved schema. This
	// is what lets multiple pipelines (each with its own scorer schema)
	// share one tracker without rebuilding layouts on the request path.
	layouts  atomic.Pointer[[]*trackerLayout]
	layoutMu sync.Mutex
}

// maxTrackerLayouts bounds how many schemas' layouts one tracker retains
// (oldest evicted first), so a tracker outliving many retrained scorers
// (each publishing a fresh schema pointer) cannot accrete dead layouts.
// It is sized well above any realistic count of concurrently-live
// schemas on one tracker: a deployment would need more than this many
// pipelines with *distinct* scorer schemas before the FIFO starts
// evicting a live schema (which degrades to a per-request mutex+rebuild
// on the overflowing schemas, not an error).
const maxTrackerLayouts = 16

// trackerShard is one lock stripe, padded so neighboring shards' mutexes
// do not share a cache line under contention.
type trackerShard struct {
	mu               sync.Mutex
	index            map[string]uint32 // IP → slab index
	slots            []entrySlot       // slab arena, grows by doubling up to cap
	free             uint32            // freelist head (chained via lruNext), noSlot = empty
	lruHead, lruTail uint32            // intrusive LRU: head = most recently used
	cap              int               // this shard's share of the tracker capacity
	evictions        uint64            // lifetime LRU evictions (occupancy gauge)

	// dirty is the shard's delta-export log: the slab indices whose
	// exported evidence fields changed, deduplicated via entrySlot.dirtyPos
	// (each live slot appears at most once; evicted slots leave a noSlot
	// tombstone). When the log would exceed dirtyLimit it is cleared and
	// dirtyLost records the last sequence whose dirt was forgotten —
	// consumers whose watermark predates it must take a full export.
	dirty      []uint32
	dirtyLimit int
	dirtyLost  uint64
	_          [32]byte
}

// trackerLayout maps the tracker's behavioral attributes onto one schema's
// slots: idx[i] is the slot of behaviorAttrNames[i] (-1 when absent), and
// mask is the coverage the tracker contributes.
type trackerLayout struct {
	schema *Schema
	idx    [behaviorAttrCount]int
	mask   uint64
}

// pathSpillEnt is one spilled per-path counter (beyond the inline table).
type pathSpillEnt struct {
	hash uint64
	hits uint64
}

// entrySlot is the tracked state for one client IP, laid out as one
// fixed-size slab record. Window counts are float32 — the tracker only
// ever adds 1 per request, and float32 holds integers exactly below 2^24,
// far beyond any per-bucket request count — and every timestamp is an
// int64 unix-nanosecond (0 = unset), so the record holds no pointers
// except the IP string and the rare path-spill slice.
type entrySlot struct {
	ip string

	// Intrusive LRU links (slab indices). lruNext doubles as the freelist
	// chain while the slot is free.
	lruPrev, lruNext uint32

	// Sliding windows, inlined: requests and failures share the epoch
	// scheme of Window but live in fixed arrays sized maxSlotBuckets (the
	// tracker's bucket count uses a prefix of them).
	reqCounts  [maxSlotBuckets]float32
	failCounts [maxSlotBuckets]float32
	reqStamps  [maxSlotBuckets]int64
	failStamps [maxSlotBuckets]int64

	// Per-path hit counts keyed by 64-bit FNV-1a path hash: the first
	// inlinePaths distinct paths inline (hits==0 marks a vacant cell; a
	// tracked path always has at least one hit), later distinct paths in
	// the insertion-ordered spill slice. Hashing merges colliding paths
	// into one counter — at ≤ maxPaths (default 64) distinct paths per IP
	// the 64-bit collision odds are ~1e-16, far below any behavioral
	// signal. overflowHits pools hits beyond the maxPaths cap.
	pathHash     [inlinePaths]uint64
	pathHits     [inlinePaths]uint64
	pathSpill    []pathSpillEnt
	pathCount    int32 // distinct paths tracked (inline + spill)
	seen         bool  // at least one Observe folded in (gates the EWMA gap)
	sumValid     bool
	overflowHits uint64

	lastSeenNS   int64
	interArrival float64 // EWMA, milliseconds
	total        uint64
	totalFailed  uint64

	// Verification evidence (RecordVerify): half-life-decayed sum of
	// solved difficulties, the decay reference time, and the consecutive
	// failed-verification streak.
	solveCredit float64
	creditAtNS  int64
	failStreak  uint64

	// evGen is the entry's evidence generation: the tracker-global delta
	// sequence stamped by every applied verification outcome (and every
	// evidence merge that changed state). It is monotone per entry, so the
	// summary cache uses it unchanged for invalidation; observations alone
	// do not bump it — that is exactly the tolerated staleness.
	evGen uint64

	// expSeq is the delta sequence of the last change to any exported
	// evidence field (total, totalFailed, solveCredit, creditAt) — unlike
	// evGen it advances on observations too, since lifetime counters are
	// gossiped. dirtyPos is this slot's position+1 in the shard dirty log
	// (0 = not logged).
	expSeq   uint64
	dirtyPos int32

	// Summary cache (WithSummaryStaleness): the last computed behavior
	// summary, the time it was computed, and the evidence generation it
	// reflects. A summarize call may serve the cached value while it is
	// younger than the tracker's staleness bound and no verification
	// evidence has landed since (evGen unchanged).
	sumGen  uint64
	sumAtNS int64
	sum     behaviorSummary
}

// timeNS converts a timestamp to the slab representation: unix
// nanoseconds, with the zero time mapping to 0 (unset).
func timeNS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nsTime is the inverse of timeNS.
func nsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// TrackerOption customizes a Tracker.
type TrackerOption func(*Tracker)

// WithCapacity bounds the number of tracked IPs (default 65536).
func WithCapacity(n int) TrackerOption {
	return func(t *Tracker) { t.capacity = n }
}

// WithWindow sets the sliding-window span and bucket count used for rates
// (default 60 s across 12 buckets; at most maxSlotBuckets buckets — the
// rings are inlined in the slab record at compile-time size).
func WithWindow(span time.Duration, buckets int) TrackerOption {
	return func(t *Tracker) { t.span, t.buckets = span, buckets }
}

// WithMaxPaths bounds the distinct paths remembered per IP (default 64).
func WithMaxPaths(n int) TrackerOption {
	return func(t *Tracker) { t.maxPaths = n }
}

// WithEvidenceHalfLife sets the decay half-life of the verified-solve
// credit (AttrSolveCredit, default DefaultEvidenceHalfLife): after one
// half-life without fresh solves an IP's accumulated credit is halved.
func WithEvidenceHalfLife(d time.Duration) TrackerOption {
	return func(t *Tracker) { t.halfLife = d }
}

// WithSummaryStaleness lets summarize serve a cached behavior summary up
// to d old, provided no verification evidence landed since it was computed
// (evidence invalidates immediately; plain observations do not). The
// half-life and window math tolerate sub-millisecond staleness — the decay
// factor across 1 ms of a 5 m half-life is 1-2.3e-6 — so a steady-state
// scoring path can skip the window sums, path-entropy, and Exp2 work on
// cache hits. Zero (the default) disables the cache: every summary is
// computed fresh at the caller's clock.
func WithSummaryStaleness(d time.Duration) TrackerOption {
	return func(t *Tracker) { t.staleness = d }
}

// WithShards sets the lock-stripe count, rounded up to a power of two and
// clamped to both 1<<14 and the tracker capacity (so over-sharding can
// never loosen the memory bound). Zero (the default) auto-sizes from
// GOMAXPROCS, keeping at least 8 entries of capacity per shard so small
// trackers stay single-shard with exact global LRU semantics.
func WithShards(n int) TrackerOption {
	return func(t *Tracker) { t.shardsOpt = n }
}

// NewTracker returns a Tracker with the given options applied.
func NewTracker(opts ...TrackerOption) (*Tracker, error) {
	t := &Tracker{
		capacity: 65536,
		span:     time.Minute,
		buckets:  12,
		maxPaths: 64,
		halfLife: DefaultEvidenceHalfLife,
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.capacity < 1 {
		return nil, fmt.Errorf("features: tracker capacity must be positive, got %d", t.capacity)
	}
	if t.span <= 0 || t.buckets < 1 {
		return nil, fmt.Errorf("features: invalid window %v/%d", t.span, t.buckets)
	}
	if t.buckets > maxSlotBuckets {
		return nil, fmt.Errorf("features: window buckets %d exceeds the inline ring capacity %d", t.buckets, maxSlotBuckets)
	}
	if t.halfLife <= 0 {
		return nil, fmt.Errorf("features: evidence half-life must be positive, got %v", t.halfLife)
	}
	if t.maxPaths < 1 {
		return nil, fmt.Errorf("features: max paths must be positive, got %d", t.maxPaths)
	}
	if t.shardsOpt < 0 {
		return nil, fmt.Errorf("features: shard count must be non-negative, got %d", t.shardsOpt)
	}
	if t.staleness < 0 {
		return nil, fmt.Errorf("features: summary staleness must be non-negative, got %v", t.staleness)
	}
	t.bucketNS = int64(t.span / time.Duration(t.buckets))
	shards := t.shardsOpt
	if shards == 0 {
		shards = defaultShardCount(t.capacity)
	}
	// Clamp before rounding: ceilPow2 would overflow on absurd requests.
	if shards > 1<<14 {
		shards = 1 << 14
	}
	shards = ceilPow2(shards)
	// More shards than capacity would hand every shard a quota of one and
	// inflate the bound to `shards` entries; clamp down instead.
	for shards > t.capacity {
		shards >>= 1
	}
	t.shardMask = uint32(shards - 1)
	var seed [4]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("features: seed shard hash: %w", err)
	}
	t.shardSeed = uint32(seed[0]) | uint32(seed[1])<<8 | uint32(seed[2])<<16 | uint32(seed[3])<<24
	t.shards = make([]trackerShard, shards)
	// Distribute capacity exactly: the first capacity%shards shards hold
	// one extra entry, so quotas sum to capacity for any configuration.
	base, extra := t.capacity/shards, t.capacity%shards
	for i := range t.shards {
		sh := &t.shards[i]
		sh.index = make(map[string]uint32)
		sh.free = noSlot
		sh.lruHead, sh.lruTail = noSlot, noSlot
		sh.cap = base
		if i < extra {
			sh.cap++
		}
		// Bound the dirty log well below the quota: at steady state delta
		// consumers drain dirt every exchange interval, so the log tracks
		// the churn of one interval, not the shard population. Overflow
		// falls back to a full export, never loses data.
		sh.dirtyLimit = sh.cap
		if sh.dirtyLimit > 1024 {
			sh.dirtyLimit = 1024
		}
		if sh.dirtyLimit < 16 {
			sh.dirtyLimit = 16
		}
	}
	t.wb = make([]wbShard, shards)
	return t, nil
}

// defaultShardCount picks a stripe count for auto mode: enough stripes to
// spread GOMAXPROCS-way contention, but never so many that a shard holds
// fewer than 8 entries.
func defaultShardCount(capacity int) int {
	n := ceilPow2(runtime.GOMAXPROCS(0) * 4)
	if n > 256 {
		n = 256
	}
	for n > 1 && capacity/n < 8 {
		n >>= 1
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardIdx picks the lock-stripe index for ip by FNV-1a hash, keyed with
// the per-tracker seed. The write-back buffer plane shares the index, so a
// buffered event's flush touches exactly the shard that owns its entry.
func (t *Tracker) shardIdx(ip string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32) ^ t.shardSeed
	for i := 0; i < len(ip); i++ {
		h ^= uint32(ip[i])
		h *= prime32
	}
	return h & t.shardMask
}

// pathHash64 is the unseeded 64-bit FNV-1a the inline path table keys on.
func pathHash64(path string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= prime64
	}
	return h
}

// shard picks the lock stripe for ip.
func (t *Tracker) shard(ip string) *trackerShard {
	return &t.shards[t.shardIdx(ip)]
}

// Shards reports the lock-stripe count in use.
func (t *Tracker) Shards() int { return len(t.shards) }

// Capacity reports the tracked-IP bound.
func (t *Tracker) Capacity() int { return t.capacity }

// EvidenceHalfLife reports the solve-credit decay half-life.
func (t *Tracker) EvidenceHalfLife() time.Duration { return t.halfLife }

// SummaryStaleness reports the summary-cache staleness bound (zero:
// caching disabled).
func (t *Tracker) SummaryStaleness() time.Duration { return t.staleness }

// Observe folds one request into the tracker.
func (t *Tracker) Observe(req RequestInfo) error {
	if req.IP == "" {
		return fmt.Errorf("features: request without IP")
	}
	sh := t.shard(req.IP)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	idx := t.entryLocked(sh, req.IP)
	t.observeLocked(sh, idx, req.Path, req.At, req.Failed)
	return nil
}

// winAdd records one hit in an inline window ring: n is the live bucket
// count (a prefix of the fixed arrays), bucketNS the epoch unit.
func winAdd(counts *[maxSlotBuckets]float32, stamps *[maxSlotBuckets]int64, n int, bucketNS, atNS int64) {
	e := atNS / bucketNS
	slot := int(((e % int64(n)) + int64(n)) % int64(n))
	if stamps[slot] != e {
		counts[slot] = 0
		stamps[slot] = e
	}
	counts[slot]++
}

// winSum totals the inline ring's buckets inside the window ending at
// nowNS, mirroring Window.Sum.
func winSum(counts *[maxSlotBuckets]float32, stamps *[maxSlotBuckets]int64, n int, bucketNS, nowNS int64) float64 {
	newest := nowNS / bucketNS
	oldest := newest - int64(n) + 1
	var total float64
	for i := 0; i < n; i++ {
		if e := stamps[i]; e >= oldest && e <= newest {
			total += float64(counts[i])
		}
	}
	return total
}

// markDirtyLocked stamps the next tracker-global delta sequence on the
// slot's exported-state generation and records it in the shard's dirty
// log. The sequence is allocated under the shard lock — that ordering is
// what makes ExportEvidenceSince's watermark sound (see deltaSeq). Returns
// the allocated sequence so evidence paths can reuse it for evGen.
func (t *Tracker) markDirtyLocked(sh *trackerShard, idx uint32) uint64 {
	seq := t.deltaSeq.Add(1)
	s := &sh.slots[idx]
	s.expSeq = seq
	if s.dirtyPos == 0 {
		if len(sh.dirty) >= sh.dirtyLimit {
			sh.compactDirtyLocked()
		}
		sh.dirty = append(sh.dirty, idx)
		s.dirtyPos = int32(len(sh.dirty))
	}
	return seq
}

// compactDirtyLocked shrinks a full dirty log: eviction tombstones go
// first, and if that is not enough the stalest half (smallest expSeq) is
// forgotten, advancing dirtyLost to the newest forgotten sequence so only
// consumers further behind than that lose their delta path. Data is never
// lost — such consumers fall back to a full export. Callers hold sh.mu.
func (sh *trackerShard) compactDirtyLocked() {
	live := sh.dirty[:0]
	for _, di := range sh.dirty {
		if di != noSlot {
			live = append(live, di)
		}
	}
	sh.dirty = live
	if len(sh.dirty) >= sh.dirtyLimit {
		sort.Slice(sh.dirty, func(i, j int) bool {
			return sh.slots[sh.dirty[i]].expSeq < sh.slots[sh.dirty[j]].expSeq
		})
		drop := len(sh.dirty) / 2
		for _, di := range sh.dirty[:drop] {
			s := &sh.slots[di]
			if s.expSeq > sh.dirtyLost {
				sh.dirtyLost = s.expSeq
			}
			s.dirtyPos = 0
		}
		copy(sh.dirty, sh.dirty[drop:])
		sh.dirty = sh.dirty[:len(sh.dirty)-drop]
	}
	for pos, di := range sh.dirty {
		sh.slots[di].dirtyPos = int32(pos + 1)
	}
}

// observeLocked folds one request into the slot at idx. Callers hold the
// shard lock.
func (t *Tracker) observeLocked(sh *trackerShard, idx uint32, path string, at time.Time, failed bool) {
	atNS := at.UnixNano()
	t.markDirtyLocked(sh, idx) // total (and maybe totalFailed) change below
	e := &sh.slots[idx]
	if e.seen {
		gapMS := float64(atNS-e.lastSeenNS) / float64(time.Millisecond)
		if gapMS < 0 {
			gapMS = 0
		}
		const alpha = 0.3 // EWMA smoothing: favors recent behavior
		if e.total <= 1 {
			e.interArrival = gapMS
		} else {
			e.interArrival = alpha*gapMS + (1-alpha)*e.interArrival
		}
	}
	e.seen = true
	e.lastSeenNS = atNS
	e.total++
	winAdd(&e.reqCounts, &e.reqStamps, t.buckets, t.bucketNS, atNS)
	if failed {
		winAdd(&e.failCounts, &e.failStamps, t.buckets, t.bucketNS, atNS)
		e.totalFailed++
	}
	t.pathHitLocked(e, path)
}

// pathHitLocked counts one hit on path: known paths increment, new paths
// enter the inline table (or the spill slice) until maxPaths distinct
// paths are tracked, and hits beyond the cap pool into overflowHits.
func (t *Tracker) pathHitLocked(e *entrySlot, path string) {
	h := pathHash64(path)
	for i := 0; i < inlinePaths; i++ {
		if e.pathHits[i] != 0 && e.pathHash[i] == h {
			e.pathHits[i]++
			return
		}
	}
	for i := range e.pathSpill {
		if e.pathSpill[i].hash == h {
			e.pathSpill[i].hits++
			return
		}
	}
	if int(e.pathCount) >= t.maxPaths {
		e.overflowHits++
		return
	}
	e.pathCount++
	for i := 0; i < inlinePaths; i++ {
		if e.pathHits[i] == 0 {
			e.pathHash[i], e.pathHits[i] = h, 1
			return
		}
	}
	e.pathSpill = append(e.pathSpill, pathSpillEnt{hash: h, hits: 1})
}

// entryLocked returns the slab index of the shard's entry for ip, creating
// (and, at the shard quota, LRU-evicting) as needed, and refreshes its LRU
// position. Callers hold sh.mu. Slot pointers are invalidated by slab
// growth, so callers re-derive &sh.slots[idx] after any entryLocked call.
func (t *Tracker) entryLocked(sh *trackerShard, ip string) uint32 {
	if idx, ok := sh.index[ip]; ok {
		sh.moveToFrontLocked(idx)
		return idx
	}
	if len(sh.index) >= sh.cap {
		sh.evictLocked()
	}
	idx := sh.allocSlotLocked()
	s := &sh.slots[idx]
	s.ip = ip
	sh.index[ip] = idx
	sh.pushFrontLocked(idx)
	return idx
}

// allocSlotLocked hands out a free slab slot: freelist first, then arena
// growth (doubling, capped at the shard quota so the slab never
// over-allocates past the memory bound).
func (sh *trackerShard) allocSlotLocked() uint32 {
	if sh.free != noSlot {
		idx := sh.free
		sh.free = sh.slots[idx].lruNext
		sh.slots[idx].lruNext = noSlot
		return idx
	}
	if len(sh.slots) == cap(sh.slots) {
		newCap := cap(sh.slots) * 2
		if newCap == 0 {
			newCap = 8
		}
		if newCap > sh.cap {
			newCap = sh.cap
		}
		if newCap < len(sh.slots)+1 {
			newCap = len(sh.slots) + 1
		}
		grown := make([]entrySlot, len(sh.slots), newCap)
		copy(grown, sh.slots)
		sh.slots = grown
	}
	sh.slots = append(sh.slots, entrySlot{})
	return uint32(len(sh.slots) - 1)
}

// pushFrontLocked links idx at the LRU front (most recently used).
func (sh *trackerShard) pushFrontLocked(idx uint32) {
	s := &sh.slots[idx]
	s.lruPrev = noSlot
	s.lruNext = sh.lruHead
	if sh.lruHead != noSlot {
		sh.slots[sh.lruHead].lruPrev = idx
	} else {
		sh.lruTail = idx
	}
	sh.lruHead = idx
}

// unlinkLocked removes idx from the LRU list.
func (sh *trackerShard) unlinkLocked(idx uint32) {
	s := &sh.slots[idx]
	if s.lruPrev != noSlot {
		sh.slots[s.lruPrev].lruNext = s.lruNext
	} else {
		sh.lruHead = s.lruNext
	}
	if s.lruNext != noSlot {
		sh.slots[s.lruNext].lruPrev = s.lruPrev
	} else {
		sh.lruTail = s.lruPrev
	}
}

// moveToFrontLocked refreshes idx's LRU position.
func (sh *trackerShard) moveToFrontLocked(idx uint32) {
	if sh.lruHead == idx {
		return
	}
	sh.unlinkLocked(idx)
	sh.pushFrontLocked(idx)
}

// RecordVerify folds one verification outcome into the IP's evidence
// state: a successful solve at the given difficulty adds that difficulty
// to the half-life-decayed solve credit and clears the failure streak; a
// failed verification extends the streak. The core framework calls this
// from Verify, so evidence accrues wherever solutions are actually
// redeemed; the simulation engine records modeled verifications through
// the same path. Allocation-free for already-tracked IPs.
func (t *Tracker) RecordVerify(ip string, difficulty int, ok bool, at time.Time) {
	if ip == "" {
		return
	}
	sh := t.shard(ip)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx := t.entryLocked(sh, ip)
	t.recordVerifyLocked(sh, idx, difficulty, ok, at)
}

// recordVerifyLocked folds one verification outcome into the slot at idx
// and bumps its evidence generation (invalidating any cached summary —
// redemption changes are visible immediately). Callers hold the shard
// lock.
func (t *Tracker) recordVerifyLocked(sh *trackerShard, idx uint32, difficulty int, ok bool, at time.Time) {
	seq := t.markDirtyLocked(sh, idx) // credit and its reference time change
	e := &sh.slots[idx]
	e.solveCredit = decayCreditNS(e.solveCredit, e.creditAtNS, timeNS(at), t.halfLife)
	e.creditAtNS = timeNS(at)
	if ok {
		e.solveCredit += float64(difficulty)
		e.failStreak = 0
	} else {
		e.failStreak++
	}
	e.evGen = seq
}

// decayCredit applies the exponential half-life decay from the credit's
// reference time to now. Non-monotonic clocks decay nothing rather than
// inflating credit.
func decayCredit(credit float64, from, now time.Time, halfLife time.Duration) float64 {
	return decayCreditNS(credit, timeNS(from), timeNS(now), halfLife)
}

// decayCreditNS is decayCredit over slab timestamps (unix nanos, 0 =
// unset).
func decayCreditNS(credit float64, fromNS, nowNS int64, halfLife time.Duration) float64 {
	if credit == 0 || fromNS == 0 {
		return credit
	}
	dt := nowNS - fromNS
	if dt <= 0 {
		return credit
	}
	return credit * math.Exp2(-float64(dt)/float64(halfLife))
}

// behaviorSummary is the tracker's attribute values for one IP, in
// behaviorAttrNames order.
type behaviorSummary [behaviorAttrCount]float64

// summarize computes an IP's behavioral attributes under its shard lock
// (all-zero for an unknown IP).
func (t *Tracker) summarize(ip string, now time.Time) behaviorSummary {
	sh := t.shard(ip)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.index[ip]
	if !ok {
		return behaviorSummary{}
	}
	return t.summarizeLocked(&sh.slots[idx], now)
}

// summarizeLocked computes (or, within the staleness bound, serves the
// cached) behavior summary for a slot. Callers hold the shard lock. A
// cache hit requires an unchanged evidence generation and an age in
// [0, staleness]; negative ages (a clock stepping backwards) recompute,
// the conservative choice.
func (t *Tracker) summarizeLocked(e *entrySlot, now time.Time) behaviorSummary {
	nowNS := now.UnixNano()
	if t.staleness > 0 && e.sumValid && e.sumGen == e.evGen {
		if age := nowNS - e.sumAtNS; age >= 0 && age <= int64(t.staleness) {
			return e.sum
		}
	}
	var s behaviorSummary
	reqs := winSum(&e.reqCounts, &e.reqStamps, t.buckets, t.bucketNS, nowNS)
	s[0] = reqs / t.span.Seconds()
	if reqs > 0 {
		s[1] = winSum(&e.failCounts, &e.failStamps, t.buckets, t.bucketNS, nowNS) / reqs
	}
	s[2] = float64(e.pathCount)
	s[3] = e.pathEntropy()
	s[4] = e.interArrival
	s[5] = float64(e.total)
	s[6] = decayCreditNS(e.solveCredit, e.creditAtNS, nowNS, t.halfLife)
	s[7] = float64(e.failStreak)
	if e.total > 0 {
		s[8] = float64(e.totalFailed) / float64(e.total)
	}
	if t.staleness > 0 {
		e.sum, e.sumAtNS, e.sumGen, e.sumValid = s, nowNS, e.evGen, true
	}
	return s
}

// AttributesVector implements VectorSource: the behavioral values at time
// now are written at their schema slots without allocating. Unknown IPs
// read all-zero — no observed behavior, no suspicion from this source —
// at full behavioral coverage.
func (t *Tracker) AttributesVector(dst []float64, schema *Schema, ip string, now time.Time) uint64 {
	l := t.layoutFor(schema)
	if l.mask == 0 {
		return 0
	}
	s := t.summarize(ip, now)
	for i, j := range l.idx {
		if j >= 0 {
			dst[j] = s[i]
		}
	}
	return l.mask
}

var _ VectorSource = (*Tracker)(nil)

// layoutFor resolves (and caches) the behavioral attributes' slots in
// schema. The fast path is one atomic load and a pointer scan; a schema
// seen for the first time takes the mutex, re-checks, and publishes a new
// bounded slice copy-on-write, so trackers shared by several pipelines
// (one schema each) never rebuild layouts on the request path.
func (t *Tracker) layoutFor(schema *Schema) *trackerLayout {
	if ls := t.layouts.Load(); ls != nil {
		for _, l := range *ls {
			if l.schema == schema {
				return l
			}
		}
	}
	t.layoutMu.Lock()
	defer t.layoutMu.Unlock()
	cur := t.layouts.Load()
	var prev []*trackerLayout
	if cur != nil {
		prev = *cur
		for _, l := range prev {
			if l.schema == schema { // lost the race to another resolver
				return l
			}
		}
	}
	l := &trackerLayout{schema: schema}
	for i, name := range behaviorAttrNames {
		j, ok := schema.Index(name)
		if !ok {
			l.idx[i] = -1
			continue
		}
		l.idx[i] = j
		l.mask |= 1 << uint(j)
	}
	for len(prev) >= maxTrackerLayouts {
		prev = prev[1:] // FIFO: evict the oldest-resolved schema
	}
	next := make([]*trackerLayout, 0, len(prev)+1)
	next = append(next, prev...)
	next = append(next, l)
	t.layouts.Store(&next)
	return l
}

// pathEntropy is the Shannon entropy (bits) of the per-path hit
// distribution: near 0 for single-endpoint hammering, high for crawlers
// spraying across many paths. Overflow hits pool into one pseudo-path, so
// the cap cannot be abused to zero the signal. Accumulation runs in fixed
// order (inline table, spill slice, overflow), so the value is
// deterministic for a given event trace.
func (e *entrySlot) pathEntropy() float64 {
	total := e.overflowHits
	for i := 0; i < inlinePaths; i++ {
		total += e.pathHits[i]
	}
	for i := range e.pathSpill {
		total += e.pathSpill[i].hits
	}
	if total == 0 {
		return 0
	}
	var h float64
	acc := func(n uint64) {
		if n == 0 {
			return
		}
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	for i := 0; i < inlinePaths; i++ {
		acc(e.pathHits[i])
	}
	for i := range e.pathSpill {
		acc(e.pathSpill[i].hits)
	}
	acc(e.overflowHits)
	return h
}

// Tracked reports how many IPs currently have state, summed across shards.
func (t *Tracker) Tracked() int {
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		total += len(sh.index)
		sh.mu.Unlock()
	}
	return total
}

// TrackerStats is a point-in-time occupancy snapshot: how full the
// tracker is, how much slab the shards have actually committed, and how
// much LRU churn it has absorbed.
type TrackerStats struct {
	// Entries is the number of IPs currently tracked.
	Entries int

	// Capacity is the configured tracked-IP bound.
	Capacity int

	// Slots is the total slab slots allocated across shards (high-water
	// occupancy; slots are recycled, never returned to the allocator).
	Slots int

	// Evictions counts lifetime LRU evictions across shards.
	Evictions uint64
}

// Utilization reports live entries per allocated slab slot in [0, 1]
// (1 when nothing has been allocated yet).
func (s TrackerStats) Utilization() float64 {
	if s.Slots == 0 {
		return 1
	}
	return float64(s.Entries) / float64(s.Slots)
}

// StatsSnapshot sums the occupancy gauges across shards.
func (t *Tracker) StatsSnapshot() TrackerStats {
	st := TrackerStats{Capacity: t.capacity}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.index)
		st.Slots += len(sh.slots)
		st.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return st
}

// evictLocked drops the shard's least-recently-used IP and recycles its
// slot through the freelist. Callers hold sh.mu.
func (sh *trackerShard) evictLocked() {
	idx := sh.lruTail
	if idx == noSlot {
		return
	}
	sh.unlinkLocked(idx)
	s := &sh.slots[idx]
	delete(sh.index, s.ip)
	if s.dirtyPos > 0 {
		// Tombstone the dirty-log cell: the row is gone, and full exports
		// would not include it either, so delta consumers just stop
		// hearing about it (the CRDT state they already merged stands).
		sh.dirty[s.dirtyPos-1] = noSlot
	}
	*s = entrySlot{} // clear state and drop the ip string / spill slice
	s.lruNext = sh.free
	sh.free = idx
	sh.evictions++
}
