package features

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func at(sec int) time.Time {
	return time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

// withMaxPaths lowers the per-IP distinct-path cap (64 otherwise) so tests
// reach the inline table's spill and the overflow pool in a few requests.
func withMaxPaths(n int) TrackerOption {
	return func(t *Tracker) { t.maxPaths = n }
}

// attrsOf reads src's attributes for ip as a map, through the one path the
// framework uses: a vector fill over the behavioral attributes (preceded
// by any extra names), keeping the slots the source covered.
func attrsOf(src VectorSource, ip string, now time.Time, extra ...string) map[string]float64 {
	schema, err := NewSchema(append(extra, behaviorAttrNames[:]...)...)
	if err != nil {
		panic(err)
	}
	v := schema.NewVector()
	mask := src.AttributesVector(v, schema, ip, now)
	attrs := make(map[string]float64, len(v))
	for j, x := range v {
		if mask&(1<<uint(j)) != 0 {
			attrs[schema.Name(j)] = x
		}
	}
	return attrs
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(WithCapacity(0)); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewTracker(WithWindow(0, 4)); err == nil {
		t.Error("zero window span accepted")
	}
	if _, err := NewTracker(WithWindow(time.Minute, 0)); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewTracker(WithWindow(time.Minute, maxSlotBuckets+1)); err == nil {
		t.Error("bucket count beyond the inline ring accepted")
	}
}

func TestWindowSpanAccessor(t *testing.T) {
	tr, err := NewTracker(WithWindow(42*time.Second, 4))
	if err != nil {
		t.Fatal(err)
	}
	if span, buckets := tr.Window(); span != 42*time.Second || buckets != 4 {
		t.Fatalf("Window() = %v / %d, want 42s / 4", span, buckets)
	}
}

// windowAttrs observes one request per entry of failed (all at the given
// second offsets) for a fresh IP and reads back its windowed rate and
// failure ratio at now.
func windowAttrs(t *testing.T, tr *Tracker, ip string, secs []int, failed []bool, now int) (rate, failRatio float64) {
	t.Helper()
	for i, sec := range secs {
		if err := tr.Observe(RequestInfo{IP: ip, Path: "/", At: at(sec), Failed: failed[i]}); err != nil {
			t.Fatal(err)
		}
	}
	attrs := attrsOf(tr, ip, at(now))
	return attrs[AttrRequestRate], attrs[AttrFailRatio]
}

func TestWindowSumWithinSpan(t *testing.T) {
	tr, err := NewTracker(WithWindow(60*time.Second, 6))
	if err != nil {
		t.Fatal(err)
	}
	rate, fr := windowAttrs(t, tr, "a", []int{0, 10, 20}, []bool{false, true, false}, 20)
	if rate != 3.0/60 {
		t.Fatalf("rate = %v, want 3/60", rate)
	}
	if fr != 1.0/3 {
		t.Fatalf("fail ratio = %v, want 1/3", fr)
	}
}

func TestWindowExpiresOldBuckets(t *testing.T) {
	tr, err := NewTracker(WithWindow(60*time.Second, 6))
	if err != nil {
		t.Fatal(err)
	}
	// At t=90 the covered buckets start at t=40 (the 60 s span quantizes
	// to whole 10 s buckets), so the failed t=0 burst is out and the clean
	// t=45 request is in.
	rate, fr := windowAttrs(t, tr, "a",
		[]int{0, 0, 0, 0, 0, 45}, []bool{true, true, true, true, true, false}, 90)
	if rate != 1.0/60 || fr != 0 {
		t.Fatalf("after expiry: rate %v, fail ratio %v, want 1/60 and 0", rate, fr)
	}
	// Far in the future everything is gone.
	attrs := attrsOf(tr, "a", at(1000))
	if attrs[AttrRequestRate] != 0 || attrs[AttrFailRatio] != 0 {
		t.Fatalf("far future: rate %v, fail ratio %v, want 0 and 0", attrs[AttrRequestRate], attrs[AttrFailRatio])
	}
}

func TestWindowBucketReuseClearsStaleCounts(t *testing.T) {
	tr, err := NewTracker(WithWindow(6*time.Second, 6)) // 1 s buckets
	if err != nil {
		t.Fatal(err)
	}
	// t=6 maps to the same ring bucket as t=0 (6 mod 6 buckets); the stale
	// counts must be cleared, not accumulated into. The window ending at
	// t=6 covers buckets [1..6]: only the t=6 request remains.
	secs, failed := make([]int, 101), make([]bool, 101)
	for i := 0; i < 100; i++ {
		failed[i] = true
	}
	secs[100] = 6
	rate, fr := windowAttrs(t, tr, "a", secs, failed, 6)
	if rate != 1.0/6 || fr != 0 {
		t.Fatalf("rate %v, fail ratio %v, want 1/6 and 0 (stale bucket leaked)", rate, fr)
	}
}

// TestWindowBackwardStepFailRatio steps one client's clock back by a full
// window. Two failed requests land in bucket epoch 5, a clean one exactly
// one window later (epoch 15, the same ring bucket), and another clean
// one at epoch 6; the summary is taken at epoch 6. The epoch-15 request
// resets its bucket, failures included, so no failure outlives the
// request bucket it was counted in and the ratio stays a ratio.
func TestWindowBackwardStepFailRatio(t *testing.T) {
	tr, err := NewTracker() // 30 s over 10 buckets
	if err != nil {
		t.Fatal(err)
	}
	epoch := func(e int64) time.Time { return time.Unix(0, e*tr.bucketNS) }
	steps := []struct {
		e      int64
		failed bool
	}{{5, true}, {5, true}, {15, false}, {6, false}}
	for _, s := range steps {
		if err := tr.Observe(RequestInfo{IP: "a", Path: "/", At: epoch(s.e), Failed: s.failed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := attrsOf(tr, "a", epoch(6))[AttrFailRatio]; got < 0 || got > 1 {
		t.Fatalf("%s = %v after a backward clock step, want a ratio in [0, 1]", AttrFailRatio, got)
	}
}

// TestWindowStaleRequestKeepsNewerBuckets pins the window rule for a
// request stamped n or more buckets behind the slot's newest bucket (the
// head): it is counted in the entry's lifetime totals but in no window
// bucket, and it never resets a newer bucket that shares its ring index.
func TestWindowStaleRequestKeepsNewerBuckets(t *testing.T) {
	type step struct {
		e      int64
		failed bool
	}
	cases := []struct {
		name       string
		steps      []step
		now        int64
		reqs, fail float64 // window counts at now
	}{
		{"exactly n behind, same bucket", []step{{15, false}, {15, false}, {5, false}}, 15, 2, 0},
		{"2n behind, same bucket", []step{{25, true}, {5, false}}, 25, 1, 1},
		{"stale failure keeps the ratio", []step{{15, true}, {5, true}, {5, false}}, 15, 1, 1},
		{"n behind, then the head moves on", []step{{15, false}, {5, false}, {16, false}}, 16, 2, 0},
		{"n behind, other bucket", []step{{15, false}, {3, true}}, 15, 1, 0},
		{"n-1 behind is in the window", []step{{15, false}, {6, true}}, 15, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := NewTracker() // 30 s over 10 buckets
			if err != nil {
				t.Fatal(err)
			}
			epoch := func(e int64) time.Time { return time.Unix(0, e*tr.bucketNS) }
			var failed float64
			for _, s := range c.steps {
				if err := tr.Observe(RequestInfo{IP: "a", Path: "/", At: epoch(s.e), Failed: s.failed}); err != nil {
					t.Fatal(err)
				}
				if s.failed {
					failed++
				}
			}
			attrs := attrsOf(tr, "a", epoch(c.now))
			if got, want := attrs[AttrRequestRate], c.reqs/30; got != want {
				t.Errorf("%s = %v, want %v", AttrRequestRate, got, want)
			}
			if got, want := attrs[AttrFailRatio], c.fail/c.reqs; got != want {
				t.Errorf("%s = %v, want %v", AttrFailRatio, got, want)
			}
			if got, want := attrs[AttrTotalRequests], float64(len(c.steps)); got != want {
				t.Errorf("%s = %v, want %v", AttrTotalRequests, got, want)
			}
			if got, want := attrs[AttrFailRatioTotal], failed/float64(len(c.steps)); got != want {
				t.Errorf("%s = %v, want %v", AttrFailRatioTotal, got, want)
			}
		})
	}
}

// TestWindowReset pins that a window's counts die with its entry: a slot
// recycled through the freelist starts with an empty ring.
func TestWindowReset(t *testing.T) {
	tr, err := NewTracker(WithCapacity(1))
	if err != nil {
		t.Fatal(err)
	}
	windowAttrs(t, tr, "a", []int{0, 0, 0}, []bool{true, true, true}, 0)
	windowAttrs(t, tr, "b", []int{1}, []bool{false}, 1) // evicts a
	rate, fr := windowAttrs(t, tr, "a", []int{2}, []bool{false}, 2)
	if rate != 1.0/30 || fr != 0 {
		t.Fatalf("re-admitted IP: rate %v, fail ratio %v, want 1/30 and 0", rate, fr)
	}
}

// Property (conservation): for requests all within one span of "now", in
// any order, the window holds every request and every failure.
func TestWindowConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		tr, err := NewTracker(WithWindow(60*time.Second, 12)) // 5 s buckets
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(uint64(len(raw)), 7))
		var fails int
		for _, v := range raw {
			// Offsets in [65s, 120s]: inside the window ending at 120s
			// after bucket quantization (epochs [65s, 125s)).
			failed := v%2 == 1
			if failed {
				fails++
			}
			if tr.Observe(RequestInfo{IP: "a", Path: "/", At: at(65 + rng.IntN(56)), Failed: failed}) != nil {
				return false
			}
		}
		attrs := attrsOf(tr, "a", at(120))
		if len(raw) == 0 {
			return attrs[AttrRequestRate] == 0 && attrs[AttrFailRatio] == 0
		}
		return attrs[AttrRequestRate] == float64(len(raw))/60 &&
			attrs[AttrFailRatio] == float64(fails)/float64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEntrySlotSizeBudget pins the per-IP slab record, the memory a flood
// must exhaust per identity. Growing it needs a stated reason and a new
// budget here. Budget on 64-bit platforms:
//
//	ip string                                  16
//	lruPrev, lruNext                            8
//	reqCounts, failCounts (2 × 12 float32)     96
//	winHead (one int64 epoch)                   8
//	pathHash, pathHits (2 × 4 uint64)          64
//	pathCount, seen (+ padding)                 8
//	overflowHits, lastSeenNS, interArrival,
//	total, totalFailed, solveCredit,
//	creditAtNS, failStreak (8 × 8)             64
//	expSeq                                      8
//	dirtyPos (+ padding)                        8
//	                                          ---
//	                                          280
//
// Spilled path counters (past inlinePaths distinct paths) live in the
// shard's spill map, not here.
func TestEntrySlotSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(entrySlot{}); got > 280 {
		t.Fatalf("entrySlot is %d B, over its 280 B budget", got)
	}
}

func TestTrackerObserveRequiresIP(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(RequestInfo{At: at(0)}); err == nil {
		t.Fatal("empty IP accepted")
	}
}

func TestTrackerUnknownIPZeroAttributes(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	attrs := attrsOf(tr, "198.51.100.1", at(0))
	for name, v := range attrs {
		if v != 0 {
			t.Errorf("attr %q = %v for unknown IP, want 0", name, v)
		}
	}
	if len(attrs) != behaviorAttrCount {
		t.Errorf("got %d attrs, want the %d behavioral ones", len(attrs), behaviorAttrCount)
	}
}

func TestTrackerPathEntropy(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	// Hammering one path: entropy 0.
	for i := 0; i < 16; i++ {
		if err := tr.Observe(RequestInfo{IP: "a", Path: "/login", At: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := attrsOf(tr, "a", at(16))[AttrPathEntropy]; got != 0 {
		t.Errorf("single-path entropy = %v, want 0", got)
	}
	// Uniform over 4 paths: entropy 2 bits.
	for i := 0; i < 16; i++ {
		paths := []string{"/a", "/b", "/c", "/d"}
		if err := tr.Observe(RequestInfo{IP: "b", Path: paths[i%4], At: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := attrsOf(tr, "b", at(16))[AttrPathEntropy]; got < 1.99 || got > 2.01 {
		t.Errorf("uniform-4 entropy = %v, want 2", got)
	}
}

func TestTrackerPathEntropyOverflowPooled(t *testing.T) {
	tr, err := NewTracker(withMaxPaths(2))
	if err != nil {
		t.Fatal(err)
	}
	// A crawler spraying 100 distinct paths with a 2-key cap: the overflow
	// pool must keep the entropy signal alive (3 effective buckets).
	for i := 0; i < 99; i++ {
		if err := tr.Observe(RequestInfo{IP: "c", Path: fmt.Sprintf("/p%d", i), At: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := attrsOf(tr, "c", at(100))[AttrPathEntropy]
	if got <= 0.1 {
		t.Errorf("capped-crawler entropy = %v, want > 0 (overflow pooled)", got)
	}
}

func TestTrackerBehavioralAttributes(t *testing.T) {
	tr, err := NewTracker(WithWindow(60*time.Second, 12))
	if err != nil {
		t.Fatal(err)
	}
	ip := "203.0.113.9"
	// 6 requests over 50s, 2 failed, 3 distinct paths.
	times := []int{0, 10, 20, 30, 40, 50}
	paths := []string{"/a", "/a", "/b", "/c", "/a", "/b"}
	for i, sec := range times {
		if err := tr.Observe(RequestInfo{
			IP:     ip,
			Path:   paths[i],
			At:     at(sec),
			Failed: i%3 == 0, // t=0 and t=30
		}); err != nil {
			t.Fatal(err)
		}
	}
	attrs := attrsOf(tr, ip, at(50))
	if got := attrs[AttrTotalRequests]; got != 6 {
		t.Errorf("%s = %v, want 6", AttrTotalRequests, got)
	}
	if got := attrs[AttrDistinctPaths]; got != 3 {
		t.Errorf("%s = %v, want 3", AttrDistinctPaths, got)
	}
	if got := attrs[AttrRequestRate]; got != 0.1 { // 6 per 60s
		t.Errorf("%s = %v, want 0.1", AttrRequestRate, got)
	}
	if got := attrs[AttrFailRatio]; got != 2.0/6.0 {
		t.Errorf("%s = %v, want %v", AttrFailRatio, got, 2.0/6.0)
	}
	// EWMA of constant 10s gaps is 10s.
	if got := attrs[AttrInterArrival]; got < 9999 || got > 10001 {
		t.Errorf("%s = %v, want ~10000 ms", AttrInterArrival, got)
	}
}

func TestTrackerInterArrivalEWMAFavorsRecent(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	ip := "192.0.2.2"
	// Slow (10 s gaps), then a sudden burst (10 ms gaps).
	now := at(0)
	for i := 0; i < 5; i++ {
		_ = tr.Observe(RequestInfo{IP: ip, Path: "/", At: now})
		now = now.Add(10 * time.Second)
	}
	slow := attrsOf(tr, ip, now)[AttrInterArrival]
	for i := 0; i < 30; i++ {
		_ = tr.Observe(RequestInfo{IP: ip, Path: "/", At: now})
		now = now.Add(10 * time.Millisecond)
	}
	fast := attrsOf(tr, ip, now)[AttrInterArrival]
	if fast >= slow/10 {
		t.Fatalf("EWMA did not adapt: slow=%v fast=%v", slow, fast)
	}
}

func TestTrackerLRUEviction(t *testing.T) {
	tr, err := NewTracker(WithCapacity(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ip := fmt.Sprintf("10.0.0.%d", i)
		if err := tr.Observe(RequestInfo{IP: ip, Path: "/", At: at(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.StatsSnapshot().Entries; got != 3 {
		t.Fatalf("Entries = %d, want 3", got)
	}
	// Oldest two (10.0.0.0, 10.0.0.1) must be gone: zero attributes.
	if attrsOf(tr, "10.0.0.0", at(10))[AttrTotalRequests] != 0 {
		t.Fatal("evicted IP still has state")
	}
	if attrsOf(tr, "10.0.0.4", at(10))[AttrTotalRequests] != 1 {
		t.Fatal("recent IP lost state")
	}
}

func TestTrackerLRUTouchOnObserve(t *testing.T) {
	tr, err := NewTracker(WithCapacity(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Observe(RequestInfo{IP: "a", Path: "/", At: at(0)})
	_ = tr.Observe(RequestInfo{IP: "b", Path: "/", At: at(1)})
	_ = tr.Observe(RequestInfo{IP: "a", Path: "/", At: at(2)}) // touch a
	_ = tr.Observe(RequestInfo{IP: "c", Path: "/", At: at(3)}) // evicts b
	if attrsOf(tr, "a", at(4))[AttrTotalRequests] != 2 {
		t.Fatal("recently-touched IP evicted")
	}
	if attrsOf(tr, "b", at(4))[AttrTotalRequests] != 0 {
		t.Fatal("least-recently-used IP not evicted")
	}
}

func TestTrackerPathCap(t *testing.T) {
	tr, err := NewTracker(withMaxPaths(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_ = tr.Observe(RequestInfo{IP: "a", Path: fmt.Sprintf("/p%d", i), At: at(i)})
	}
	if got := attrsOf(tr, "a", at(100))[AttrDistinctPaths]; got != 4 {
		t.Fatalf("%s = %v, want cap 4", AttrDistinctPaths, got)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := fmt.Sprintf("172.16.0.%d", w)
			for i := 0; i < 200; i++ {
				_ = tr.Observe(RequestInfo{IP: ip, Path: "/", At: at(i)})
				_ = attrsOf(tr, ip, at(i))
			}
		}(w)
	}
	wg.Wait()
	if got := tr.StatsSnapshot().Entries; got != 8 {
		t.Fatalf("Entries = %d, want 8", got)
	}
}

// TestTrackerLayoutCacheMultiSchema exercises the bounded per-schema
// layout cache: several schemas served interleaved (the multi-pipeline
// shape, where one tracker feeds frameworks with different scorer
// schemas) must all stay resident, keep answering with correct slots and
// masks, and never grow the cache past its bound.
func TestTrackerLayoutCacheMultiSchema(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Observe(RequestInfo{IP: "a", Path: "/x", At: at(0)})
	_ = tr.Observe(RequestInfo{IP: "a", Path: "/y", At: at(1)})

	mk := func(names ...string) *Schema {
		s, err := NewSchema(names...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Distinct layouts: the live attributes land at different slots.
	schemas := []*Schema{
		mk(AttrRequestRate, AttrTotalRequests),
		mk("static_x", AttrTotalRequests, AttrFailRatio),
		mk(AttrDistinctPaths),
		mk("static_x", "static_y"), // no live attributes at all
	}
	for round := 0; round < 3; round++ {
		for si, schema := range schemas {
			dst := schema.NewVector()
			mask := tr.AttributesVector(dst, schema, "a", at(2))
			want := uint64(0)
			for j := 0; j < schema.Len(); j++ {
				name := schema.Name(j)
				for _, live := range behaviorAttrNames {
					if name == live {
						want |= 1 << uint(j)
					}
				}
			}
			if mask != want {
				t.Fatalf("round %d schema %d: mask = %b, want %b", round, si, mask, want)
			}
			if j, ok := schema.Index(AttrTotalRequests); ok && dst[j] != 2 {
				t.Fatalf("round %d schema %d: total = %v, want 2", round, si, dst[j])
			}
		}
	}
	if ls, _ := tr.layouts.list.Load().([]*layout); len(ls) != len(schemas) {
		t.Fatalf("layout cache holds %d entries, want %d", len(ls), len(schemas))
	}

	// Fill the cache to its bound with churned (retrained-scorer-style)
	// schemas, then one more: the oldest is evicted, the cache stays
	// bounded, and the evicted schema still answers correctly (it just
	// re-resolves).
	for i := len(schemas); i < maxLayouts+1; i++ {
		s := mk(fmt.Sprintf("churn_%d", i), AttrFailRatio)
		_ = tr.AttributesVector(s.NewVector(), s, "a", at(3))
	}
	if ls, _ := tr.layouts.list.Load().([]*layout); len(ls) != maxLayouts {
		t.Fatalf("layout cache holds %d entries after churn, want bound %d", len(ls), maxLayouts)
	}
	dst := schemas[0].NewVector()
	if mask := tr.AttributesVector(dst, schemas[0], "a", at(4)); mask == 0 {
		t.Fatal("evicted schema no longer resolves")
	}
}

// TestTrackerLayoutCacheConcurrent races many goroutines resolving a mix
// of schemas; run under -race this guards the copy-on-write publish.
func TestTrackerLayoutCacheConcurrent(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	var schemas []*Schema
	for i := 0; i < maxLayouts; i++ {
		s, err := NewSchema(fmt.Sprintf("static_%d", i), AttrRequestRate, AttrTotalRequests)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, 3)
			for i := 0; i < 500; i++ {
				s := schemas[(w+i)%len(schemas)]
				clear(dst)
				if mask := tr.AttributesVector(dst, s, "a", at(i)); mask == 0 {
					t.Error("live attributes not covered")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ls, _ := tr.layouts.list.Load().([]*layout); len(ls) != len(schemas) {
		t.Fatalf("layout cache holds %d entries, want %d", len(ls), len(schemas))
	}
}
