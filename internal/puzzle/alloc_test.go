package puzzle

import (
	"encoding/binary"
	"testing"
	"time"
)

// A ReplayCache at capacity claims a fresh seed (sweep, evict the soonest
// expiry, insert) without allocating.
func TestReplayCacheRememberZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const capacity = 64
	c := NewReplayCache(capacity, nil)
	exp := time.Now().Add(time.Hour)
	var s [SeedSize]byte
	var next uint64
	remember := func() {
		next++
		binary.BigEndian.PutUint64(s[:], next)
		if !c.Remember(s, exp) {
			t.Fatal("fresh seed reported as replay")
		}
	}
	for i := 0; i < 2*capacity; i++ { // reach steady state: full and evicting
		remember()
	}
	if allocs := testing.AllocsPerRun(1000, remember); allocs != 0 {
		t.Fatalf("Remember allocates %.1f/op at steady state, want 0", allocs)
	}
}

// An accepted verification with a replay cache wired in — probe, work
// check and claim — allocates nothing, under either backend: the balloon
// shell hashes the canonical bytes already in the verifier's scratch.
func TestVerifyWithReplayCacheZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	forEachBackend(t, func(t *testing.T, b Backend) {
		const capacity, runs = 16, 100
		iss := newTestIssuer(t, WithIssuerBackend(b))
		ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(NewReplayCache(capacity, nil)))
		sols := make([]Solution, capacity+runs+1) // AllocsPerRun adds a warm-up call
		for i := range sols {
			sols[i] = issueSolved(t, iss, "c")
		}
		var next int
		verify := func() {
			if err := ver.Verify(sols[next], "c"); err != nil {
				t.Fatalf("solution %d: %v", next, err)
			}
			next++
		}
		for next < capacity { // fill the cache so claims evict
			verify()
		}
		if allocs := testing.AllocsPerRun(runs, verify); allocs != 0 {
			t.Fatalf("Verify with a replay cache allocates %.1f/op, want 0", allocs)
		}
	})
}
