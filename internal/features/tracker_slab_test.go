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
// or free; and the LRU list is a consistent doubly-linked walk of exactly
// the live slots.
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

// TestTrackerSlabHammer hammers one small tracker from several goroutines —
// observes, verifications, summaries, exports, and stats — so the race
// detector sees eviction, slot recycling, and slab growth under real
// contention; the slab invariants are checked once the dust settles.
func TestTrackerSlabHammer(t *testing.T) {
	tr, err := NewTracker(WithCapacity(256), WithShards(4), withMaxPaths(4))
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
// float64 windows, no slabs, no caches, no eviction — mirroring the
// arithmetic of the pre-slab layout expression for expression so results
// must match bit for bit.
type refTrackerModel struct {
	span     time.Duration
	buckets  int
	bucketNS int64
	maxPaths int
	halfLife time.Duration
	entries  map[string]*refTrackerEntry
}

type refTrackerEntry struct {
	reqCounts, failCounts [maxSlotBuckets]float64
	reqStamps, failStamps [maxSlotBuckets]int64
	paths                 []pathSpillEnt // insertion-ordered, matching slab order
	overflow              uint64
	seen                  bool
	lastSeenNS            int64
	interArrival          float64
	total, totalFailed    uint64
	solveCredit           float64
	creditAtNS            int64
	failStreak            uint64
}

func (m *refTrackerModel) entry(ip string) *refTrackerEntry {
	e, ok := m.entries[ip]
	if !ok {
		e = &refTrackerEntry{}
		m.entries[ip] = e
	}
	return e
}

func refWinAdd(counts *[maxSlotBuckets]float64, stamps *[maxSlotBuckets]int64, n int, bucketNS, atNS int64) {
	epoch := atNS / bucketNS
	slot := int(((epoch % int64(n)) + int64(n)) % int64(n))
	if stamps[slot] != epoch {
		counts[slot] = 0
		stamps[slot] = epoch
	}
	counts[slot]++
}

func refWinSum(counts *[maxSlotBuckets]float64, stamps *[maxSlotBuckets]int64, n int, bucketNS, nowNS int64) float64 {
	newest := nowNS / bucketNS
	oldest := newest - int64(n) + 1
	var total float64
	for i := 0; i < n; i++ {
		if e := stamps[i]; e >= oldest && e <= newest {
			total += counts[i]
		}
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
	e.seen = true
	e.lastSeenNS = atNS
	e.total++
	refWinAdd(&e.reqCounts, &e.reqStamps, m.buckets, m.bucketNS, atNS)
	if failed {
		refWinAdd(&e.failCounts, &e.failStamps, m.buckets, m.bucketNS, atNS)
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
	reqs := refWinSum(&e.reqCounts, &e.reqStamps, m.buckets, m.bucketNS, nowNS)
	s[0] = reqs / m.span.Seconds()
	if reqs > 0 {
		s[1] = refWinSum(&e.failCounts, &e.failStamps, m.buckets, m.bucketNS, nowNS) / reqs
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
