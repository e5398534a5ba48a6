package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"aipow/internal/puzzle"
)

var bloomEpoch = time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)

func testTag(i int) [puzzle.TagSize]byte {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	return sha256.Sum256(seed[:])
}

func mustRing(t *testing.T, bits, hashes, buckets int, span time.Duration) *Ring {
	t.Helper()
	r, err := NewRing(bits, hashes, buckets, span)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingSeenNeverMissesWithinRetention(t *testing.T) {
	r := mustRing(t, 1<<14, 4, 4, 10*time.Second)
	now := bloomEpoch
	for i := 0; i < 200; i++ {
		r.Add(testTag(i), now.Add(time.Duration(i)*100*time.Millisecond))
	}
	for i := 0; i < 200; i++ {
		if !r.Seen(testTag(i)) {
			t.Fatalf("tag %d lost within retention", i)
		}
	}
}

// TestRingFreshTagRateAtDefaultGeometry fills every bucket of a
// default-geometry ring with 65 536 tags and probes fresh ones. Seen
// probes all live buckets, so a fresh tag is suppressed at
// 1-(1-p)^buckets, where p = (1-e^(-kn/m))^k is one bucket's rate
// (≈ 0.24 %): ≈ 0.95 % here. The measured rate must sit within ±15 % of
// that, about 4.5 standard deviations at 100 000 probes.
func TestRingFreshTagRateAtDefaultGeometry(t *testing.T) {
	const perBucket, probesN = 65536, 100000
	r := mustRing(t, DefaultFilterBits, DefaultFilterHashes, DefaultBuckets, time.Second)
	for b := 0; b < DefaultBuckets; b++ {
		at := bloomEpoch.Add(time.Duration(b) * time.Second)
		for i := 0; i < perBucket; i++ {
			r.Add(testTag(b*perBucket+i), at)
		}
	}
	hits := 0
	for i := 0; i < probesN; i++ {
		if r.Seen(testTag(1<<30 + i)) {
			hits++
		}
	}
	k, m := float64(DefaultFilterHashes), float64(DefaultFilterBits)
	p := math.Pow(1-math.Exp(-k*perBucket/m), k)
	want := 1 - math.Pow(1-p, DefaultBuckets)
	got := float64(hits) / probesN
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("fresh-tag false-positive rate %.4f%%, want %.4f%% ± 15%%", 100*got, 100*want)
	}
	t.Logf("fresh-tag false-positive rate %.4f%% (predicted %.4f%%, one bucket %.4f%%)", 100*got, 100*want, 100*p)
}

func TestRingRotationExpiresOldBuckets(t *testing.T) {
	span := 10 * time.Second
	r := mustRing(t, 1<<14, 4, 3, span)
	now := bloomEpoch
	r.Add(testTag(1), now)
	if !r.Seen(testTag(1)) {
		t.Fatal("tag not recorded")
	}
	// Advance past the ring: the slot recycles and the tag is forgotten.
	r.Add(testTag(2), now.Add(3*span))
	if r.Seen(testTag(1)) {
		t.Fatal("tag survived a full ring rotation")
	}
	if !r.Seen(testTag(2)) {
		t.Fatal("fresh tag lost")
	}
	// Late writes into already-recycled epochs are dropped, not resurrected.
	r.Add(testTag(3), now)
	if r.Seen(testTag(3)) {
		t.Fatal("stale-epoch add landed in a live bucket")
	}
}

func TestRingMergeIsUnion(t *testing.T) {
	span := 10 * time.Second
	a := mustRing(t, 1<<14, 4, 4, span)
	b := mustRing(t, 1<<14, 4, 4, span)
	now := bloomEpoch
	for i := 0; i < 50; i++ {
		a.Add(testTag(i), now)
	}
	for i := 50; i < 100; i++ {
		b.Add(testTag(i), now.Add(span)) // different epoch
	}
	snap := b.Snapshot(nil)
	a.Merge(snap)
	a.Merge(snap) // idempotent
	for i := 0; i < 100; i++ {
		if !a.Seen(testTag(i)) {
			t.Fatalf("tag %d missing after merge", i)
		}
	}
	// b is unchanged by having been snapshotted.
	for i := 0; i < 50; i++ {
		if b.Seen(testTag(i)) {
			t.Fatalf("merge mutated the source ring (tag %d)", i)
		}
	}
}

func TestRingMergeFromMatchesMerge(t *testing.T) {
	span := 10 * time.Second
	src := mustRing(t, 1<<12, 4, 4, span)
	viaSnap := mustRing(t, 1<<12, 4, 4, span)
	viaFrom := mustRing(t, 1<<12, 4, 4, span)
	now := bloomEpoch
	for i := 0; i < 300; i++ {
		src.Add(testTag(i), now.Add(time.Duration(i%3)*span))
	}
	viaSnap.Merge(src.Snapshot(nil))
	viaFrom.MergeFrom(src)
	for i := 0; i < 300; i++ {
		if viaSnap.Seen(testTag(i)) != viaFrom.Seen(testTag(i)) {
			t.Fatalf("MergeFrom diverges from Merge at tag %d", i)
		}
	}
}

func TestRingMergeRejectsForeignGeometry(t *testing.T) {
	r := mustRing(t, 1<<14, 4, 4, 10*time.Second)
	foreign := mustRing(t, 1<<12, 4, 4, 10*time.Second)
	foreign.Add(testTag(7), bloomEpoch)
	r.Merge(foreign.Snapshot(nil))
	r.MergeFrom(foreign)
	if r.Seen(testTag(7)) {
		t.Fatal("mismatched geometry merged anyway")
	}
	// Mismatched span likewise.
	slowSpan := mustRing(t, 1<<14, 4, 4, 20*time.Second)
	slowSpan.Add(testTag(8), bloomEpoch)
	r.Merge(slowSpan.Snapshot(nil))
	if r.Seen(testTag(8)) {
		t.Fatal("mismatched span merged anyway")
	}
}

func TestRingSeenZeroAllocs(t *testing.T) {
	r := mustRing(t, 1<<14, 4, 4, 10*time.Second)
	tag := testTag(1)
	r.Add(tag, bloomEpoch)
	miss := testTag(2)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Seen(tag)
		r.Seen(miss)
	}); allocs != 0 {
		t.Fatalf("Seen allocates %.1f/op on the serving path", allocs)
	}
}

func TestNewRingRejectsBadGeometry(t *testing.T) {
	cases := []struct{ bits, hashes, buckets int }{
		{1000, 4, 4}, // not a power of two
		{32, 4, 4},   // too small
		{1 << 14, 0, 4},
		{1 << 14, 17, 4},
		{1 << 14, 4, 1},
	}
	for _, c := range cases {
		if _, err := NewRing(c.bits, c.hashes, c.buckets, time.Second); err == nil {
			t.Fatalf("NewRing(%d, %d, %d) accepted", c.bits, c.hashes, c.buckets)
		}
	}
	if _, err := NewRing(1<<14, 4, 4, 0); err == nil {
		t.Fatal("zero span accepted")
	}
}
