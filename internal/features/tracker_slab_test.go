package features

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// checkSlabInvariants walks every shard's slab structures and fails on any
// violation of the layout's core invariants: the index maps IPs to
// distinct, in-range slots whose record carries the same IP back; the
// freelist is acyclic, in range, and disjoint from live slots (a freelist
// that double-assigned a slot would show up here as a live slot on the
// free chain or two IPs on one slot); every allocated slot is either live
// or free; the LRU list is a consistent doubly-linked walk of exactly the
// live slots; and the spill map holds exactly the live slots past their
// inline path table, each with its spilled path count.
func checkSlabInvariants(t *testing.T, tr *Tracker) {
	t.Helper()
	for si := range tr.shards {
		sh := &tr.shards[si]
		sh.mu.Lock()
		live := make(map[uint32]string, len(sh.index))
		for ip, idx := range sh.index {
			if int(idx) >= len(sh.slots) {
				t.Fatalf("shard %d: index[%q] = %d out of range (%d slots)", si, ip, idx, len(sh.slots))
			}
			if prev, dup := live[idx]; dup {
				t.Fatalf("shard %d: slot %d double-assigned to %q and %q", si, idx, prev, ip)
			}
			live[idx] = ip
			if got := sh.slots[idx].ip; got != ip {
				t.Fatalf("shard %d: slot %d holds ip %q, index says %q", si, idx, got, ip)
			}
		}
		if len(sh.index) > sh.cap {
			t.Fatalf("shard %d: %d entries exceed quota %d", si, len(sh.index), sh.cap)
		}
		freeCount := 0
		for idx := sh.free; idx != noSlot; idx = sh.slots[idx].lruNext {
			if int(idx) >= len(sh.slots) {
				t.Fatalf("shard %d: freelist node %d out of range", si, idx)
			}
			if ip, isLive := live[idx]; isLive {
				t.Fatalf("shard %d: slot %d on the freelist while live for %q", si, idx, ip)
			}
			freeCount++
			if freeCount > len(sh.slots) {
				t.Fatalf("shard %d: freelist cycle", si)
			}
		}
		if freeCount+len(sh.index) != len(sh.slots) {
			t.Fatalf("shard %d: %d free + %d live != %d allocated slots",
				si, freeCount, len(sh.index), len(sh.slots))
		}
		lruCount := 0
		prev := noSlot
		for idx := sh.lruHead; idx != noSlot; idx = sh.slots[idx].lruNext {
			if got := sh.slots[idx].lruPrev; got != prev {
				t.Fatalf("shard %d: slot %d lruPrev = %d, want %d", si, idx, got, prev)
			}
			if _, isLive := live[idx]; !isLive {
				t.Fatalf("shard %d: LRU node %d is not a live slot", si, idx)
			}
			prev = idx
			lruCount++
			if lruCount > len(sh.index) {
				t.Fatalf("shard %d: LRU cycle", si)
			}
		}
		if lruCount != len(sh.index) || sh.lruTail != prev {
			t.Fatalf("shard %d: LRU walk saw %d of %d live slots (tail %d, want %d)",
				si, lruCount, len(sh.index), sh.lruTail, prev)
		}
		spilled := 0
		for idx := range live {
			if n := int(sh.slots[idx].pathCount) - inlinePaths; n > 0 {
				spilled++
				if got := len(sh.spill[idx]); got != n {
					t.Fatalf("shard %d: slot %d spills %d paths, pathCount says %d", si, idx, got, n)
				}
			}
		}
		if len(sh.spill) != spilled {
			t.Fatalf("shard %d: spill map holds %d slots, %d live slots spill", si, len(sh.spill), spilled)
		}
		sh.mu.Unlock()
	}
}

// TestTrackerSlabFreelistChurn drives a single-shard tracker far past its
// capacity so every insert after the warm-up evicts and recycles a slot,
// interleaving re-observes of surviving IPs (LRU moves) and verifications,
// and checks the slab invariants after every event. This is the
// deterministic freelist-never-double-assigns test.
func TestTrackerSlabFreelistChurn(t *testing.T) {
	tr, err := NewTracker(WithCapacity(8), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		at = at.Add(time.Duration(rng.Intn(50)+1) * time.Millisecond)
		ip := fmt.Sprintf("10.9.0.%d", rng.Intn(40)) // 5× capacity: constant churn
		switch rng.Intn(3) {
		case 0, 1:
			if err := tr.Observe(RequestInfo{IP: ip, Path: "/p", At: at, Failed: i%3 == 0}); err != nil {
				t.Fatal(err)
			}
		case 2:
			tr.RecordVerify(ip, 10, i%2 == 0, at)
		}
		checkSlabInvariants(t, tr)
	}
	st := tr.StatsSnapshot()
	if st.Entries != 8 || st.Slots != 8 {
		t.Fatalf("after churn: %d entries, %d slots, want 8 and 8", st.Entries, st.Slots)
	}
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
}

// TestTrackerSpillDiesWithEntry pins that an evicted slot's spilled path
// counters leave the shard's spill map with it, so a recycled slot starts
// with no paths.
func TestTrackerSpillDiesWithEntry(t *testing.T) {
	tr, err := NewTracker(WithCapacity(1), withMaxPaths(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inlinePaths+3; i++ {
		if err := tr.Observe(RequestInfo{IP: "a", Path: fmt.Sprintf("/p%d", i), At: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	checkSlabInvariants(t, tr)
	if got := attrsOf(tr, "a", at(9))[AttrDistinctPaths]; got != inlinePaths+3 {
		t.Fatalf("%s = %v before eviction, want %d", AttrDistinctPaths, got, inlinePaths+3)
	}
	for _, ip := range []string{"b", "a"} { // b evicts a, a evicts b into the same slot
		if err := tr.Observe(RequestInfo{IP: ip, Path: "/", At: at(10)}); err != nil {
			t.Fatal(err)
		}
		checkSlabInvariants(t, tr)
	}
	attrs := attrsOf(tr, "a", at(10))
	if attrs[AttrDistinctPaths] != 1 || attrs[AttrPathEntropy] != 0 {
		t.Fatalf("re-admitted IP: %v distinct paths, entropy %v, want 1 and 0",
			attrs[AttrDistinctPaths], attrs[AttrPathEntropy])
	}
}

// TestTrackerSlabHammer hammers one small tracker from several goroutines —
// observes, verifications, summaries, exports, and stats — so the race
// detector sees eviction, slot recycling, and slab growth under real
// contention; the slab invariants are checked once the dust settles.
func TestTrackerSlabHammer(t *testing.T) {
	tr, err := NewTracker(WithCapacity(256), WithShards(4), withMaxPaths(5)) // spill, then overflow
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var rows []EvidenceRow
			var since uint64
			for i := 0; i < 4000; i++ {
				ip := fmt.Sprintf("10.8.%d.%d", rng.Intn(8), rng.Intn(128)) // 4× capacity
				at := base.Add(time.Duration(i*workers+w) * time.Millisecond)
				switch rng.Intn(10) {
				case 0:
					tr.RecordVerify(ip, rng.Intn(20)+1, rng.Intn(2) == 0, at)
				case 1:
					_ = attrsOf(tr, ip, at)
				case 2:
					rows, since, _ = tr.ExportEvidenceSince(rows[:0], 0, since)
				case 3:
					_ = tr.StatsSnapshot()
				default:
					_ = tr.Observe(RequestInfo{
						IP: ip, Path: fmt.Sprintf("/p%d", rng.Intn(6)),
						At: at, Failed: rng.Intn(4) == 0,
					})
				}
			}
		}(w)
	}
	wg.Wait()
	checkSlabInvariants(t, tr)
	if st := tr.StatsSnapshot(); st.Entries != 256 {
		t.Fatalf("hammered tracker holds %d entries, want full capacity 256", st.Entries)
	}
}

// refTrackerModel is a straight-line reference implementation of the
// tracker's per-IP semantics — plain maps, insertion-ordered path slices,
// float64 windows keyed by epoch, no slabs, no rings, no caches, no
// eviction — mirroring the arithmetic of the pre-slab layout expression
// for expression so results must match bit for bit.
type refTrackerModel struct {
	span     time.Duration
	buckets  int
	bucketNS int64
	maxPaths int
	halfLife time.Duration
	entries  map[string]*refTrackerEntry
}

type refTrackerEntry struct {
	// head is the newest window epoch observed; reqs and fails count the
	// requests of each epoch in (head-n, head].
	head               int64
	reqs, fails        map[int64]float64
	paths              []pathSpillEnt // insertion-ordered, matching slab order
	overflow           uint64
	seen               bool
	lastSeenNS         int64
	interArrival       float64
	total, totalFailed uint64
	solveCredit        float64
	creditAtNS         int64
	failStreak         uint64
}

func (m *refTrackerModel) entry(ip string) *refTrackerEntry {
	e, ok := m.entries[ip]
	if !ok {
		e = &refTrackerEntry{}
		m.entries[ip] = e
	}
	return e
}

// refWinAdd is the window rule: the newest epoch seen is the head, the
// window keeps the n epochs (head-n, head], and a request stamped at or
// before head-n is counted in no window epoch.
func refWinAdd(e *refTrackerEntry, n int, bucketNS, atNS int64, first, failed bool) {
	epoch := atNS / bucketNS
	if first || epoch > e.head {
		e.head = epoch
	}
	for ep := range e.reqs {
		if ep <= e.head-int64(n) {
			delete(e.reqs, ep)
			delete(e.fails, ep)
		}
	}
	if epoch <= e.head-int64(n) {
		return
	}
	if e.reqs == nil {
		e.reqs, e.fails = make(map[int64]float64), make(map[int64]float64)
	}
	e.reqs[epoch]++
	if failed {
		e.fails[epoch]++
	}
}

// refWinSum totals counts over the epochs in both the window ending at
// nowNS and the window ending at the head.
func refWinSum(counts map[int64]float64, head int64, n int, bucketNS, nowNS int64) float64 {
	now := nowNS / bucketNS
	lo, hi := max(now, head)-int64(n)+1, min(now, head)
	var total float64
	for ep := lo; ep <= hi; ep++ {
		total += counts[ep]
	}
	return total
}

func (m *refTrackerModel) observe(ip, path string, at time.Time, failed bool) {
	e := m.entry(ip)
	atNS := at.UnixNano()
	if e.seen {
		gapMS := float64(atNS-e.lastSeenNS) / float64(time.Millisecond)
		if gapMS < 0 {
			gapMS = 0
		}
		const alpha = 0.3
		if e.total <= 1 {
			e.interArrival = gapMS
		} else {
			e.interArrival = alpha*gapMS + (1-alpha)*e.interArrival
		}
	}
	refWinAdd(e, m.buckets, m.bucketNS, atNS, !e.seen, failed)
	e.seen = true
	e.lastSeenNS = atNS
	e.total++
	if failed {
		e.totalFailed++
	}
	h := pathHash64(path)
	for i := range e.paths {
		if e.paths[i].hash == h {
			e.paths[i].hits++
			return
		}
	}
	if len(e.paths) >= m.maxPaths {
		e.overflow++
		return
	}
	e.paths = append(e.paths, pathSpillEnt{hash: h, hits: 1})
}

func (m *refTrackerModel) recordVerify(ip string, difficulty int, ok bool, at time.Time) {
	e := m.entry(ip)
	e.solveCredit = decayCreditNS(e.solveCredit, e.creditAtNS, at.UnixNano(), m.halfLife)
	e.creditAtNS = at.UnixNano()
	if ok {
		e.solveCredit += float64(difficulty)
		e.failStreak = 0
	} else {
		e.failStreak++
	}
}

func (m *refTrackerModel) summarize(ip string, now time.Time) [behaviorAttrCount]float64 {
	var s [behaviorAttrCount]float64
	e, ok := m.entries[ip]
	if !ok {
		return s
	}
	nowNS := now.UnixNano()
	reqs := refWinSum(e.reqs, e.head, m.buckets, m.bucketNS, nowNS)
	s[0] = reqs / m.span.Seconds()
	if reqs > 0 {
		s[1] = refWinSum(e.fails, e.head, m.buckets, m.bucketNS, nowNS) / reqs
	}
	s[2] = float64(len(e.paths))
	total := e.overflow
	for i := range e.paths {
		total += e.paths[i].hits
	}
	if total > 0 {
		var h float64
		acc := func(n uint64) {
			if n == 0 {
				return
			}
			p := float64(n) / float64(total)
			h -= p * math.Log2(p)
		}
		for i := range e.paths {
			acc(e.paths[i].hits)
		}
		acc(e.overflow)
		s[3] = h
	}
	s[4] = e.interArrival
	s[5] = float64(e.total)
	s[6] = decayCreditNS(e.solveCredit, e.creditAtNS, nowNS, m.halfLife)
	s[7] = float64(e.failStreak)
	if e.total > 0 {
		s[8] = float64(e.totalFailed) / float64(e.total)
	}
	return s
}

// TestTrackerSlabTraceEquivalence replays a 10k-event random trace —
// observations with failures, verification outcomes, window expiry across
// hours of simulated time, inline path-table spill and overflow — into
// both the slab tracker and the reference model, and requires every
// queried attribute to match bit for bit throughout and at the end. The
// float32 window counts only ever accumulate +1, so they are exact and
// the slab layout has no licence to differ in even the last ulp.
func TestTrackerSlabTraceEquivalence(t *testing.T) {
	tr, err := NewTracker(withMaxPaths(6)) // inline(4) + spill(2), then overflow
	if err != nil {
		t.Fatal(err)
	}
	model := &refTrackerModel{
		span:     tr.span,
		buckets:  tr.buckets,
		bucketNS: tr.bucketNS,
		maxPaths: tr.maxPaths,
		halfLife: tr.halfLife,
		entries:  make(map[string]*refTrackerEntry),
	}
	ips := make([]string, 48)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.7.%d.%d", i/16, i%16)
	}
	paths := make([]string, 10)
	for i := range paths {
		paths[i] = fmt.Sprintf("/api/v%d", i)
	}
	compare := func(step int, ip string, at time.Time) {
		t.Helper()
		got := attrsOf(tr, ip, at)
		want := model.summarize(ip, at)
		for i, name := range behaviorAttrNames {
			if got[name] != want[i] {
				t.Fatalf("step %d, ip %s: %s = %v, want %v", step, ip, name, got[name], want[i])
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	at := time.Unix(1_700_000_000, 0)
	for step := 0; step < 10_000; step++ {
		at = at.Add(time.Duration(rng.Intn(500_000)) * time.Microsecond)
		ip := ips[rng.Intn(len(ips))]
		if rng.Intn(5) == 0 {
			diff, ok := rng.Intn(20)+1, rng.Intn(5) < 3
			tr.RecordVerify(ip, diff, ok, at)
			model.recordVerify(ip, diff, ok, at)
		} else {
			path, failed := paths[rng.Intn(len(paths))], rng.Intn(4) == 0
			if err := tr.Observe(RequestInfo{IP: ip, Path: path, At: at, Failed: failed}); err != nil {
				t.Fatal(err)
			}
			model.observe(ip, path, at, failed)
		}
		if rng.Intn(10) == 0 {
			compare(step, ips[rng.Intn(len(ips))], at)
		}
	}
	for _, ip := range ips {
		compare(10_000, ip, at)
	}
	// The trace must actually have spilled and overflowed path tables,
	// or the equivalence proved less than it claims.
	spilled, overflowed := false, false
	for _, e := range model.entries {
		if len(e.paths) > inlinePaths {
			spilled = true
		}
		if e.overflow > 0 {
			overflowed = true
		}
	}
	if !spilled || !overflowed {
		t.Fatalf("trace too tame: spill=%v overflow=%v, want both", spilled, overflowed)
	}
}

// newRefModel returns an empty reference model with tr's parameters.
func newRefModel(tr *Tracker) *refTrackerModel {
	return &refTrackerModel{
		span:     tr.span,
		buckets:  tr.buckets,
		bucketNS: tr.bucketNS,
		maxPaths: tr.maxPaths,
		halfLife: tr.halfLife,
		entries:  make(map[string]*refTrackerEntry),
	}
}

// checkMatchesModel requires every behavioral attribute of ip at now to
// match the model bit for bit.
func checkMatchesModel(t *testing.T, tr *Tracker, model *refTrackerModel, step int, ip string, now time.Time) {
	t.Helper()
	got := attrsOf(tr, ip, now)
	want := model.summarize(ip, now)
	for i, name := range behaviorAttrNames {
		if got[name] != want[i] {
			t.Fatalf("step %d, ip %s: %s = %v, want %v", step, ip, name, got[name], want[i])
		}
	}
}

// TestTrackerSlabTraceEquivalenceJitter is TestTrackerSlabTraceEquivalence
// with out-of-order stamps: every event and query is stamped up to n-1
// buckets before the trace clock, as requests that sat in a buffer or a
// proxy queue arrive. Bucket writes then land behind the head, inside the
// window, and the slab must still match the model bit for bit.
func TestTrackerSlabTraceEquivalenceJitter(t *testing.T) {
	tr, err := NewTracker(withMaxPaths(6))
	if err != nil {
		t.Fatal(err)
	}
	model := newRefModel(tr)
	ips := make([]string, 48)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.7.%d.%d", i/16, i%16)
	}
	maxJitter := int64(tr.buckets-1) * tr.bucketNS
	rng := rand.New(rand.NewSource(43))
	clock := time.Unix(1_700_000_000, 0)
	stamp := func() time.Time { return clock.Add(-time.Duration(rng.Int63n(maxJitter))) }
	for step := 0; step < 10_000; step++ {
		clock = clock.Add(time.Duration(rng.Intn(500_000)) * time.Microsecond)
		ip, at := ips[rng.Intn(len(ips))], stamp()
		if rng.Intn(5) == 0 {
			diff, ok := rng.Intn(20)+1, rng.Intn(5) < 3
			tr.RecordVerify(ip, diff, ok, at)
			model.recordVerify(ip, diff, ok, at)
		} else {
			path, failed := fmt.Sprintf("/api/v%d", rng.Intn(10)), rng.Intn(4) == 0
			if err := tr.Observe(RequestInfo{IP: ip, Path: path, At: at, Failed: failed}); err != nil {
				t.Fatal(err)
			}
			model.observe(ip, path, at, failed)
		}
		if rng.Intn(10) == 0 {
			checkMatchesModel(t, tr, model, step, ips[rng.Intn(len(ips))], stamp())
		}
	}
	for _, ip := range ips {
		checkMatchesModel(t, tr, model, 10_000, ip, clock)
	}
	checkSlabInvariants(t, tr)
}

// checkTrackerOps decodes data into tracker ops, three bytes each (op,
// arg, clock step), and holds the tracker to the reference model after
// every read and at the end. The window is 4 s over 4 buckets and the
// clock steps up to 16 s either way, so writes land past the head, inside
// the window behind it, and at or before head-n; 8 IPs and 8 paths with a
// 6-path cap reach the inline table, the spill map and the overflow pool.
//
//	op&3 = 0, 1  Observe ips[arg&7] on paths[arg>>3&7], failed when op&4
//	op&3 = 2     RecordVerify ips[arg&7] at difficulty op>>4 + 1, ok unless op&4
//	op&3 = 3     read ips[arg&7] at the clock and compare
func checkTrackerOps(t *testing.T, data []byte) {
	tr, err := NewTracker(WithWindow(4*time.Second, 4), withMaxPaths(6))
	if err != nil {
		t.Fatal(err)
	}
	model := newRefModel(tr)
	var ips, paths [8]string
	for i := range ips {
		ips[i], paths[i] = fmt.Sprintf("10.6.0.%d", i), fmt.Sprintf("/p%d", i)
	}
	clock := time.Unix(1_700_000_000, 0)
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		op, arg := data[0], data[1]
		clock = clock.Add(time.Duration(int8(data[2])) * 125 * time.Millisecond)
		ip := ips[arg&7]
		switch op & 3 {
		case 0, 1:
			path, failed := paths[arg>>3&7], op&4 != 0
			if err := tr.Observe(RequestInfo{IP: ip, Path: path, At: clock, Failed: failed}); err != nil {
				t.Fatal(err)
			}
			model.observe(ip, path, clock, failed)
		case 2:
			diff, ok := int(op>>4)+1, op&4 == 0
			tr.RecordVerify(ip, diff, ok, clock)
			model.recordVerify(ip, diff, ok, clock)
		case 3:
			checkMatchesModel(t, tr, model, step, ip, clock)
		}
	}
	for _, ip := range ips {
		checkMatchesModel(t, tr, model, -1, ip, clock)
	}
	checkSlabInvariants(t, tr)
}

func FuzzTrackerMatchesModel(f *testing.F) {
	// Three requests a bucket apart, one 2 s back, one a window back
	// (stale: counted in totals only), a read; then a verify and a jump
	// past the whole window.
	f.Add([]byte{0, 0, 8, 4, 8, 8, 0, 16, 8, 0, 0, 240, 4, 8, 224, 3, 0, 0,
		2, 0, 4, 0, 0, 100, 3, 0, 0})
	// Eight distinct paths on one IP: inline, spill, overflow.
	paths := []byte{}
	for p := byte(0); p < 8; p++ {
		paths = append(paths, 0, p<<3|1, 1)
	}
	f.Add(append(paths, 3, 1, 0, 3, 1, 200))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		random := make([]byte, 3*400)
		rng.Read(random)
		f.Add(random)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkTrackerOps(t, data) })
}

// TestTrackerDeltaExportReplay pins the delta-export contract under churn
// heavy enough to overflow and compact the dirty log: a consumer that
// starts from a full export and folds in every subsequent export (delta
// or fallback-full) by replacing rows per IP must end byte-equal, row for
// row, with a fresh full export — for every IP the tracker still holds.
func TestTrackerDeltaExportReplay(t *testing.T) {
	tr, err := NewTracker(WithCapacity(20), WithShards(1)) // dirtyLimit = 20
	if err != nil {
		t.Fatal(err)
	}
	view := make(map[string]EvidenceRow)
	apply := func(rows []EvidenceRow, delta bool) {
		if !delta {
			// A full export is authoritative: rows absent from it carry
			// no evidence (or were evicted) and must not linger.
			for ip := range view {
				delete(view, ip)
			}
		}
		for _, r := range rows {
			view[r.IP] = r
		}
	}

	rows, since, delta := tr.ExportEvidenceSince(nil, 0, 0)
	if delta {
		t.Fatal("since=0 export claimed to be a delta")
	}
	apply(rows, delta)

	rng := rand.New(rand.NewSource(11))
	at := time.Unix(1_700_000_000, 0)
	deltas, fulls := 0, 0
	for round := 0; round < 60; round++ {
		// More distinct dirty entries per round than the dirty log holds,
		// with eviction churn leaving tombstones in it.
		for i := 0; i < 30; i++ {
			at = at.Add(time.Millisecond)
			ip := fmt.Sprintf("10.6.0.%d", rng.Intn(100))
			if rng.Intn(3) == 0 {
				tr.RecordVerify(ip, 12, true, at)
			} else if err := tr.Observe(RequestInfo{IP: ip, Path: "/p", At: at, Failed: i%2 == 0}); err != nil {
				t.Fatal(err)
			}
		}
		rows, since, delta = tr.ExportEvidenceSince(rows[:0], 0, since)
		apply(rows, delta)
		if delta {
			deltas++
		} else {
			fulls++
		}
	}
	if deltas == 0 {
		t.Error("no export took the delta path")
	}

	full := tr.ExportEvidence(nil, 0)
	for _, want := range full {
		got, ok := view[want.IP]
		if !ok {
			t.Fatalf("replayed view missing %s", want.IP)
		}
		if got != want {
			t.Fatalf("replayed view for %s = %+v, want %+v", want.IP, got, want)
		}
	}
	t.Logf("replay converged over %d delta and %d full exports (%d live rows)", deltas, fulls, len(full))
}

// TestTrackerDeltaWatermarkMonotone pins two cheap API contracts: an
// up-to-date consumer receives an empty delta (not a full export), and
// the watermark never moves backwards.
func TestTrackerDeltaWatermarkMonotone(t *testing.T) {
	tr, err := NewTracker(WithCapacity(64), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_700_000_000, 0)
	tr.RecordVerify("10.5.0.1", 8, true, at)
	rows, w1, _ := tr.ExportEvidenceSince(nil, 0, 0)
	if len(rows) != 1 {
		t.Fatalf("full export = %d rows, want 1", len(rows))
	}
	rows, w2, delta := tr.ExportEvidenceSince(rows[:0], 0, w1)
	if !delta || len(rows) != 0 {
		t.Fatalf("idle re-export: delta=%v rows=%d, want an empty delta", delta, len(rows))
	}
	if w2 < w1 {
		t.Fatalf("watermark moved backwards: %d → %d", w1, w2)
	}
	tr.RecordVerify("10.5.0.2", 8, true, at.Add(time.Second))
	rows, w3, delta := tr.ExportEvidenceSince(rows[:0], 0, w2)
	if !delta || len(rows) != 1 || rows[0].IP != "10.5.0.2" {
		t.Fatalf("incremental export: delta=%v rows=%+v, want just 10.5.0.2", delta, rows)
	}
	if w3 < w2 {
		t.Fatalf("watermark moved backwards: %d → %d", w2, w3)
	}
}
