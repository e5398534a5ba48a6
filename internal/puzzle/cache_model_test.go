package puzzle

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// replayModel is the reference a ReplayCache is checked against: a plain
// map from seed to expiry that forgets every expired seed before a claim
// and, when full, evicts the minimum expiry by a linear scan.
type replayModel struct {
	max     int
	entries map[[SeedSize]byte]int64
}

func (m *replayModel) forgetExpired(now int64) {
	for k, until := range m.entries {
		if now > until {
			delete(m.entries, k)
		}
	}
}

func (m *replayModel) contains(s [SeedSize]byte, now int64) bool {
	until, ok := m.entries[s]
	return ok && now <= until
}

func (m *replayModel) len(now int64) int {
	m.forgetExpired(now)
	return len(m.entries)
}

// remember mirrors ReplayCache.rememberAt. When a full model has several
// seeds tied at the minimum expiry, pick names the one to evict: the cache
// may evict any one of them.
func (m *replayModel) remember(s [SeedSize]byte, exp, now int64, pick func([][SeedSize]byte) [SeedSize]byte) bool {
	m.forgetExpired(now)
	if _, ok := m.entries[s]; ok {
		return false
	}
	if len(m.entries) >= m.max {
		var soonest [][SeedSize]byte
		for k, until := range m.entries {
			switch {
			case len(soonest) == 0 || until < m.entries[soonest[0]]:
				soonest = append(soonest[:0], k)
			case until == m.entries[soonest[0]]:
				soonest = append(soonest, k)
			}
		}
		victim := soonest[0]
		if len(soonest) > 1 {
			victim = pick(soonest)
		}
		delete(m.entries, victim)
	}
	m.entries[s] = exp
	return true
}

// replayOp is one step of a differential run. Times are nanoseconds after
// replayEpoch.
type replayOp struct {
	kind replayOpKind
	seed byte  // index into the run's seed universe
	at   int64 // claim expiry (opClaim) or clock target (opAdvance)
}

type replayOpKind uint8

const (
	opClaim      replayOpKind = iota // Remember(seed, at)
	opProbe                          // containsAt(seed, now)
	opLen                            // Len()
	opAdvance                        // step the clock forward to at
	opOnExpiry                       // step the clock onto the seed's expiry
	opPastExpiry                     // step the clock one nanosecond past it
	opKinds
)

func (k replayOpKind) String() string {
	return [...]string{"claim", "probe", "len", "advance", "onto expiry", "past expiry"}[k]
}

var replayEpoch = time.Unix(1_700_000_000, 0)

func replaySeed(i byte) [SeedSize]byte {
	var s [SeedSize]byte
	s[0], s[SeedSize-1] = i, ^i
	return s
}

// checkReplayOps drives a ReplayCache of the given capacity and a replayModel
// with ops over a universe of n seeds and fails on the first answer on
// which they differ. After every op it probes every seed of the universe.
// The clock never steps back.
func checkReplayOps(t testing.TB, capacity, n int, ops []replayOp) {
	t.Helper()
	var now int64
	c := NewReplayCache(capacity, func() time.Time { return replayEpoch.Add(time.Duration(now)) })
	m := &replayModel{max: capacity, entries: make(map[[SeedSize]byte]int64)}
	at := func(ns int64) time.Time { return replayEpoch.Add(time.Duration(ns)) }
	for i, op := range ops {
		s := replaySeed(op.seed % byte(n))
		switch op.kind {
		case opClaim:
			got := c.rememberAt(s, at(op.at), at(now))
			want := m.remember(s, op.at, now, func(tied [][SeedSize]byte) [SeedSize]byte {
				var gone [][SeedSize]byte
				for _, k := range tied {
					if !c.containsAt(k, at(now)) {
						gone = append(gone, k)
					}
				}
				if len(gone) != 1 {
					t.Fatalf("op %d: the cache evicted %d of %d seeds tied at the soonest expiry, want 1",
						i, len(gone), len(tied))
				}
				return gone[0]
			})
			if got != want {
				t.Fatalf("op %d: Remember(seed %d, expiry %d) at %d = %v, model %v",
					i, op.seed%byte(n), op.at, now, got, want)
			}
		case opProbe:
			// Every op ends with a probe of the whole universe below.
		case opLen:
			if got, want := c.Len(), m.len(now); got != want {
				t.Fatalf("op %d: Len() at %d = %d, model %d", i, now, got, want)
			}
		case opAdvance:
			now = max(now, op.at)
		case opOnExpiry, opPastExpiry:
			if until, ok := m.entries[s]; ok {
				if op.kind == opPastExpiry {
					until++
				}
				now = max(now, until)
			}
		}
		for j := 0; j < n; j++ {
			k := replaySeed(byte(j))
			if got, want := c.containsAt(k, at(now)), m.contains(k, now); got != want {
				t.Fatalf("op %d (%v): containsAt(seed %d) at %d = %v, model %v", i, op.kind, j, now, got, want)
			}
		}
	}
}

// Expiry orders for genReplayOps.
const (
	orderInOrder = iota
	orderJittered
	orderReverse
	orderEqual
	orderKinds
)

// genReplayOps returns count ops whose claims follow order. Op i sits at
// slot i·step, where an in-order claim expires one TTL later. Clock steps
// land at most a quarter TTL past the slot, so a cache of 64 fills with
// live seeds and evicts; steps onto and past a seed's expiry expire whole
// runs of seeds at once, which are then claimed again.
func genReplayOps(rng *rand.Rand, order, n, count int) []replayOp {
	const step, ttl = 1000, 400 * 1000
	ops := make([]replayOp, 0, count)
	for i := 0; i < count; i++ {
		op := replayOp{seed: byte(rng.IntN(n))}
		base := int64(i) * step
		switch r := rng.IntN(100); {
		case r < 60:
			op.kind = opClaim
			switch order {
			case orderInOrder:
				op.at = base + ttl
			case orderJittered:
				op.at = base + ttl + rng.Int64N(200*step) - 100*step
			case orderReverse:
				op.at = int64(count-i)*step + ttl
			case orderEqual:
				op.at = base/(16*step)*(16*step) + ttl
			}
		case r < 76:
			op.kind = opProbe
		case r < 81:
			op.kind = opLen
		case r < 96:
			op.kind, op.at = opAdvance, base+rng.Int64N(ttl/4)
		case r < 98:
			op.kind = opOnExpiry
		default:
			op.kind = opPastExpiry
		}
		ops = append(ops, op)
	}
	return ops
}

// TestReplayCacheMatchesModel drives the cache and the reference model
// with seeded op sequences — in-order, jittered, reverse-order and equal
// expiries, at capacities 1 to 8 and 64 — and requires the same answer
// from every Remember, containsAt and Len. The seed universe is about
// twice the capacity, so claims hit live seeds (replays), expired seeds
// (re-claims) and fresh ones, and a full cache evicts.
func TestReplayCacheMatchesModel(t *testing.T) {
	orders := [orderKinds]string{"in-order", "jittered", "reverse", "equal"}
	for _, capacity := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64} {
		for order, name := range orders {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("max=%d/%s/seed=%d", capacity, name, seed), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, uint64(capacity)))
					n := 2*capacity + 3
					checkReplayOps(t, capacity, n, genReplayOps(rng, order, n, 3000))
				})
			}
		}
	}
}

// FuzzReplayCache runs checkReplayOps over fuzzed op sequences. The first
// byte picks the capacity (1 to 8, or 64); every further three bytes are
// one op: its kind, its seed and a time byte. A claim expires up to 32
// units before and 223 after a cursor that each clock step moves forward,
// so the bytes can spell in-order, reverse, tied and past expiries.
func FuzzReplayCache(f *testing.F) {
	f.Add([]byte{0, 0, 1, 40, 0, 2, 40, 0, 3, 40, 3, 0, 200, 0, 1, 40})
	f.Add([]byte{8, 0, 1, 200, 0, 2, 150, 0, 3, 100, 0, 4, 50, 0, 5, 0, 2, 0, 0})
	f.Add([]byte{3, 0, 1, 90, 0, 2, 90, 0, 3, 90, 0, 4, 90, 4, 1, 0, 0, 1, 90, 5, 2, 0})
	// At capacity 64: 200 claims in shuffled expiry order, so the cache
	// fills and every eviction must find the soonest of 64 live seeds.
	shuffled := []byte{8}
	rng := rand.New(rand.NewPCG(64, 64))
	for i := 0; i < 200; i++ {
		shuffled = append(shuffled, byte(opClaim), byte(i), byte(rng.IntN(256)))
	}
	f.Add(shuffled)
	caps := []int{1, 2, 3, 4, 5, 6, 7, 8, 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := caps[int(data[0])%len(caps)]
		const unit = 1000
		var cursor int64
		var ops []replayOp
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			op := replayOp{kind: replayOpKind(b[0]) % opKinds, seed: b[1]}
			switch op.kind {
			case opClaim:
				op.at = cursor + (int64(b[2])-32)*unit
			case opAdvance:
				cursor += int64(b[2]) * unit
				op.at = cursor
			}
			ops = append(ops, op)
		}
		checkReplayOps(t, capacity, 2*capacity+3, ops)
	})
}

// TestReplayCacheMemoryBudget pins what a replay cache costs a node. An
// empty cache at the default capacity allocates under 64 KiB: memory
// comes with claims, so a pipeline that never redeems holds none. A cache
// filled to 65 536 seeds and then churned through four times as many
// claims holds at most 96 B per seed, whether the churn is jittered or
// arrives in reverse expiry order after an in-order fill (a client
// redeeming its tokens newest-first).
func TestReplayCacheMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 65 536-seed cache")
	}
	const capacity = 1 << 16
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	empty := NewReplayCache(capacity, nil)
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - allocated; got >= 64<<10 {
		t.Errorf("an empty cache allocates %d B, over its 64 KiB budget", got)
	}
	runtime.KeepAlive(empty)

	start := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewPCG(7, 7))
	for _, tc := range []struct {
		name string
		// expires returns claim i's expiry after start; claims below
		// capacity fill the cache, the rest churn it.
		expires func(i int) time.Duration
	}{
		{"jittered", func(i int) time.Duration {
			return time.Hour + time.Duration(i)*time.Millisecond + time.Duration(rng.Int64N(int64(time.Second)))
		}},
		// The churn expires after the whole fill, latest claim first, so
		// every claim lands far from the front of the expiry order.
		{"in-order fill, reverse churn", func(i int) time.Duration {
			if i < capacity {
				return time.Hour + time.Duration(i)*time.Millisecond
			}
			return time.Hour + time.Duration(6*capacity-i)*time.Millisecond
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heapInUse()
			c := NewReplayCache(capacity, func() time.Time { return start })
			var s [SeedSize]byte
			for i := 0; i < 5*capacity; i++ {
				binary.LittleEndian.PutUint64(s[:], uint64(i))
				if !c.Remember(s, start.Add(tc.expires(i))) {
					t.Fatalf("claim %d: fresh seed reported as replay", i)
				}
			}
			if c.Len() != capacity {
				t.Fatalf("Len() = %d, want %d", c.Len(), capacity)
			}
			perSeed := float64(int64(heapInUse())-int64(before)) / capacity
			t.Logf("%.1f B per seed", perSeed)
			if perSeed > 96 {
				t.Errorf("a full, churned cache holds %.1f B per seed, over its 96 B budget", perSeed)
			}
			runtime.KeepAlive(c)
		})
	}

	// Once every seed of a full set has expired, a sweep gives the
	// memory back.
	t.Run("expired", func(t *testing.T) {
		before := heapInUse()
		now := start
		c := NewReplayCache(capacity, func() time.Time { return now })
		var s [SeedSize]byte
		for i := 0; i < capacity; i++ {
			binary.LittleEndian.PutUint64(s[:], uint64(i))
			c.Remember(s, start.Add(time.Hour+time.Duration(i)*time.Millisecond))
		}
		now = start.Add(2 * time.Hour)
		if n := c.Len(); n != 0 {
			t.Fatalf("Len() = %d after every expiry, want 0", n)
		}
		held := int64(heapInUse()) - int64(before)
		t.Logf("%d B held", held)
		if held > 64<<10 {
			t.Errorf("an expired set holds %d B, over its 64 KiB budget", held)
		}
		runtime.KeepAlive(c)
	})
}
