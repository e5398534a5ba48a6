package features

import (
	"fmt"
	"sync"
	"testing"
)

// TestTrackerShardedConcurrent hammers the sharded tracker with mixed
// Observe / Attributes / AttributesVector traffic from many goroutines —
// enough distinct IPs to force eviction in every shard — and asserts the
// capacity bound holds across shards. Run with -race to exercise the
// lock striping.
func TestTrackerShardedConcurrent(t *testing.T) {
	const (
		capacity = 512
		shards   = 8
		workers  = 16
		perWork  = 2000
	)
	tr, err := NewTracker(WithCapacity(capacity), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.shards); got != shards {
		t.Fatalf("shards = %d, want %d", got, shards)
	}
	schema, err := NewSchema(behaviorAttrNames[:]...)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := schema.NewVector()
			for i := 0; i < perWork; i++ {
				// Far more distinct IPs than capacity, so shards evict
				// continuously while other goroutines read.
				ip := fmt.Sprintf("10.%d.%d.%d", w, i%64, i%251)
				_ = tr.Observe(RequestInfo{
					IP:     ip,
					Path:   fmt.Sprintf("/p%d", i%16),
					At:     at(i),
					Failed: i%7 == 0,
				})
				if i%3 == 0 {
					_ = attrsOf(tr, ip, at(i))
				} else {
					clear(dst)
					if mask := tr.AttributesVector(dst, schema, ip, at(i)); mask != schema.FullMask() {
						t.Errorf("tracker coverage mask = %b, want full %b", mask, schema.FullMask())
						return
					}
				}
				if i%100 == 0 && tr.StatsSnapshot().Entries > capacity {
					t.Errorf("Entries = %d exceeds capacity %d mid-flood", tr.StatsSnapshot().Entries, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Per-shard quotas sum exactly to capacity, so the global bound holds
	// for any shard configuration.
	if got := tr.StatsSnapshot().Entries; got > capacity {
		t.Fatalf("Entries = %d, want ≤ capacity %d", got, capacity)
	}
	if got := tr.StatsSnapshot().Entries; got == 0 {
		t.Fatal("tracker empty after flood")
	}
}

// TestTrackerShardAutoSizing checks that tiny trackers stay single-shard
// (exact global LRU) and that explicit shard counts round to powers of
// two.
func TestTrackerShardAutoSizing(t *testing.T) {
	small, err := NewTracker(WithCapacity(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(small.shards); got != 1 {
		t.Errorf("capacity-3 tracker has %d shards, want 1", got)
	}
	rounded, err := NewTracker(WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rounded.shards); got != 8 {
		t.Errorf("WithShards(5) → %d shards, want 8", got)
	}
	if _, err := NewTracker(WithShards(-1)); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestTrackerVectorMatchesAttributes asserts the vector fast path and the
// map path summarize identically.
func TestTrackerVectorMatchesAttributes(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	ip := "203.0.113.7"
	for i := 0; i < 40; i++ {
		_ = tr.Observe(RequestInfo{IP: ip, Path: fmt.Sprintf("/p%d", i%5), At: at(i), Failed: i%4 == 0})
	}
	now := at(41)

	schema, err := NewSchema(append([]string{"static_attr"}, behaviorAttrNames[:]...)...)
	if err != nil {
		t.Fatal(err)
	}
	dst := schema.NewVector()
	mask := tr.AttributesVector(dst, schema, ip, now)

	attrs := attrsOf(tr, ip, now)
	for name, want := range attrs {
		j, ok := schema.Index(name)
		if !ok {
			t.Fatalf("schema missing %q", name)
		}
		if mask&(1<<uint(j)) == 0 {
			t.Errorf("mask does not cover %q", name)
		}
		if dst[j] != want {
			t.Errorf("vector[%q] = %v, map path %v", name, dst[j], want)
		}
	}
	if j, _ := schema.Index("static_attr"); mask&(1<<uint(j)) != 0 {
		t.Error("tracker claimed coverage of a static attribute")
	}

	// Unknown IP: zeros written at behavioral slots even over a dirty dst.
	for i := range dst {
		dst[i] = 99
	}
	tr.AttributesVector(dst, schema, "198.18.0.1", now)
	if j, _ := schema.Index(AttrTotalRequests); dst[j] != 0 {
		t.Error("unknown IP did not zero its behavioral slots")
	}
}
