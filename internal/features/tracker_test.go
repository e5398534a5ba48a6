package features

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

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
	if _, err := NewTracker(WithWindow(0, 4)); err == nil {
		t.Error("zero window span accepted")
	}
	if _, err := NewTracker(WithWindow(time.Minute, 0)); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewTracker(WithMaxPaths(0)); err == nil {
		t.Error("zero max paths accepted")
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
	tr, err := NewTracker(WithMaxPaths(2))
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
	if got := tr.Tracked(); got != 3 {
		t.Fatalf("Tracked() = %d, want 3", got)
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
	tr, err := NewTracker(WithMaxPaths(4))
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
	if got := tr.Tracked(); got != 8 {
		t.Fatalf("Tracked() = %d, want 8", got)
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
	if ls := tr.layouts.Load(); ls == nil || len(*ls) != len(schemas) {
		t.Fatalf("layout cache holds %d entries, want %d", len(*ls), len(schemas))
	}

	// Fill the cache to its bound with churned (retrained-scorer-style)
	// schemas, then one more: the oldest is evicted, the cache stays
	// bounded, and the evicted schema still answers correctly (it just
	// re-resolves).
	for i := len(schemas); i < maxTrackerLayouts+1; i++ {
		s := mk(fmt.Sprintf("churn_%d", i), AttrFailRatio)
		_ = tr.AttributesVector(s.NewVector(), s, "a", at(3))
	}
	if ls := tr.layouts.Load(); len(*ls) != maxTrackerLayouts {
		t.Fatalf("layout cache holds %d entries after churn, want bound %d", len(*ls), maxTrackerLayouts)
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
	for i := 0; i < maxTrackerLayouts; i++ {
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
	if ls := tr.layouts.Load(); len(*ls) != len(schemas) {
		t.Fatalf("layout cache holds %d entries, want %d", len(*ls), len(schemas))
	}
}
