package puzzle

import (
	"sync"
	"testing"
	"time"
)

func seed(b byte) [SeedSize]byte {
	var s [SeedSize]byte
	s[0] = b
	return s
}

func TestReplayCacheRemember(t *testing.T) {
	c := NewReplayCache(10, nil)
	exp := time.Now().Add(time.Minute)
	if !c.Remember(seed(1), exp) {
		t.Fatal("fresh seed reported as replay")
	}
	if c.Remember(seed(1), exp) {
		t.Fatal("replayed seed accepted")
	}
	if !c.containsAt(seed(1), time.Now()) {
		t.Fatal("containsAt() = false for live seed")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestReplayCacheExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewReplayCache(10, clock)
	c.Remember(seed(1), now.Add(10*time.Second))

	now = now.Add(5 * time.Second)
	if !c.containsAt(seed(1), now) {
		t.Fatal("seed expired early")
	}
	now = now.Add(6 * time.Second) // past expiry
	if c.containsAt(seed(1), now) {
		t.Fatal("expired seed still contained")
	}
	// After expiry the same seed may be remembered again (a fresh challenge
	// can never share a seed in practice, but the cache must not wedge).
	if !c.Remember(seed(1), now.Add(time.Minute)) {
		t.Fatal("re-remember after expiry failed")
	}
}

func TestReplayCacheCapacityEvictsSoonest(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	c := NewReplayCache(2, clock)
	c.Remember(seed(1), now.Add(10*time.Second)) // soonest to expire
	c.Remember(seed(2), now.Add(20*time.Second))
	c.Remember(seed(3), now.Add(30*time.Second)) // forces eviction of seed 1

	if c.containsAt(seed(1), now) {
		t.Fatal("soonest-expiring entry not evicted")
	}
	if !c.containsAt(seed(2), now) || !c.containsAt(seed(3), now) {
		t.Fatal("later-expiring entries evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
}

func TestReplayCacheMinCapacityOne(t *testing.T) {
	c := NewReplayCache(0, nil) // clamped to 1
	exp := time.Now().Add(time.Minute)
	if !c.Remember(seed(1), exp) {
		t.Fatal("first remember failed")
	}
	if !c.Remember(seed(2), exp) {
		t.Fatal("second remember failed (should evict first)")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestReplayCacheSweepKeepsLatestRegistration(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	c := NewReplayCache(10, clock)
	c.Remember(seed(1), now.Add(1*time.Second))
	now = now.Add(2 * time.Second) // first registration expires
	if !c.Remember(seed(1), now.Add(10*time.Second)) {
		t.Fatal("re-remember failed")
	}
	// Sweeping the stale heap entry must not delete the fresh registration.
	now = now.Add(1 * time.Second)
	if !c.containsAt(seed(1), now) {
		t.Fatal("stale heap entry deleted the fresh registration")
	}
}

func TestReplayCacheConcurrent(t *testing.T) {
	c := NewReplayCache(1024, nil)
	exp := time.Now().Add(time.Minute)
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				if c.Remember(seed(byte(i)), exp) {
					mu.Lock()
					accepted++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if accepted != 64 {
		t.Fatalf("accepted = %d, want exactly 64 (one per distinct seed)", accepted)
	}
}
