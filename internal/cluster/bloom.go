// Package cluster is the distributed defense plane: it makes a fleet of
// framework nodes behind a load balancer act as one defense instead of K
// independent ones. Three planes ride one peer-exchange loop:
//
//   - Replay suppression. Every successful redemption publishes its
//     challenge tag into a time-bucketed rotating Bloom ring; peers merge
//     each other's rings on a bounded-staleness exchange interval, and
//     the verifier fails closed on filter hits — so a token genuinely
//     solved on one node cannot be redeemed again on a sibling once one
//     exchange round has passed. Memory is bounded (buckets × bits) and
//     the false-positive rate is declared, not accidental (see Ring).
//
//   - Reputation gossip. Each node exports its behavior tracker's
//     evidence digest (monotone request/failure counters, the decayed
//     solve credit with its reference time) and merges peers' digests
//     CRDT-style: merge order, duplication, and relaying cannot change
//     the converged state (features.MergeRows pins the laws).
//
//   - Fleet feedback. Each node re-publishes the cumulative serving
//     counters of every origin it knows, merged by pointwise max; a
//     node's controller samples its local counters summed with the
//     peer-reported ones (feedback.NewSumSource), so the adapt ladder
//     fires on cluster-wide rate — a botnet striping itself 1/K across
//     the fleet is detected at full strength on every node.
//
// Exchange is pull-based and transitive: Node.Frame snapshots everything
// a peer needs, Node.Absorb folds a peer's frame in, and relayed state
// (origins learned from a peer's peers) propagates, so partial views —
// each node exchanging with a few neighbors — still converge fleet-wide.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"aipow/internal/puzzle"
)

// Filter-geometry defaults: 1<<20 bits (128 KiB) per bucket, 4 buckets
// (512 KiB per ring), 4 hash probes. One bucket holding n tags has a
// false-positive rate of p = (1-e^(-kn/m))^k, ≈ 0.24% at n = 65 536. Seen
// probes every live bucket, so a fresh solution is wrongly suppressed at
// 1-(1-p)^4 — ≈ 0.95% with 65 536 tags in each bucket — and the rate
// grows with the fleet's redemption rate. At the default 40 s buckets
// (2 min retained over 3 spans) it reaches 1% at about 1 660 redemptions/s
// fleet-wide and 3.9% at 2 500/s. Operators declare their own geometry in
// the spec (`cluster filter(bits=…, hashes=…)`).
const (
	DefaultFilterBits   = 1 << 20
	DefaultFilterHashes = 4
	DefaultBuckets      = 4
)

// Ring is a time-bucketed rotating Bloom filter over redeemed-token tags.
// Tags land in the bucket of their redemption time (epoch = time / span);
// a bucket is recycled when its slot's epoch comes around again, so a tag
// is retained for at least (buckets-1) × span — callers size span so that
// retention covers the challenge TTL plus skew, after which the verifier's
// freshness check already rejects the token and the filter owes nothing.
//
// Bucket epochs are aligned on absolute time, so two nodes' rings agree on
// bucket boundaries and merge by ORing same-epoch buckets — the Bloom
// union. Memory is fixed at construction: buckets × bits/8 bytes.
//
// The serving-path check (Seen) is a read-lock and k word probes over each
// live bucket — no allocation, no hashing beyond reading the tag itself:
// tags are HMAC-SHA256 outputs, already uniform, so the probe positions
// derive directly from the tag bytes (double hashing over two 64-bit
// lanes).
type Ring struct {
	mu      sync.Mutex
	rmu     sync.RWMutex // guards bucket words; mu orders writers
	span    time.Duration
	mask    uint64 // bits-1
	hashes  int
	buckets []ringBucket
}

// ringBucket is one time slice of the ring.
type ringBucket struct {
	epoch int64 // time/span this bucket covers; -1 = empty
	words []uint64
}

// NewRing builds a ring with the given geometry. bits must be a power of
// two ≥ 64; hashes in [1, 16]; buckets ≥ 2; span > 0.
func NewRing(bits, hashes, buckets int, span time.Duration) (*Ring, error) {
	switch {
	case bits < 64 || bits&(bits-1) != 0:
		return nil, fmt.Errorf("cluster: filter bits %d must be a power of two ≥ 64", bits)
	case hashes < 1 || hashes > 16:
		return nil, fmt.Errorf("cluster: filter hashes %d outside [1, 16]", hashes)
	case buckets < 2:
		return nil, fmt.Errorf("cluster: need at least 2 filter buckets, got %d", buckets)
	case span <= 0:
		return nil, fmt.Errorf("cluster: non-positive bucket span %v", span)
	}
	r := &Ring{
		span:    span,
		mask:    uint64(bits - 1),
		hashes:  hashes,
		buckets: make([]ringBucket, buckets),
	}
	for i := range r.buckets {
		r.buckets[i] = ringBucket{epoch: -1, words: make([]uint64, bits/64)}
	}
	return r, nil
}

// Span reports the bucket span.
func (r *Ring) Span() time.Duration { return r.span }

// Bits reports the per-bucket filter size in bits.
func (r *Ring) Bits() int { return int(r.mask) + 1 }

// Hashes reports the probe count.
func (r *Ring) Hashes() int { return r.hashes }

// probes derives the two double-hashing lanes from a tag. The tag is an
// HMAC-SHA256 output — 32 uniformly distributed bytes — so no further
// mixing is needed; h2 is forced odd so the probe sequence walks the whole
// power-of-two filter.
func probes(tag *[puzzle.TagSize]byte) (h1, h2 uint64) {
	h1 = binary.BigEndian.Uint64(tag[0:8])
	h2 = binary.BigEndian.Uint64(tag[8:16]) | 1
	return
}

// Add sets the tag's bits in the bucket covering now, recycling the slot
// if its epoch has passed.
func (r *Ring) Add(tag [puzzle.TagSize]byte, now time.Time) {
	epoch := now.UnixNano() / int64(r.span)
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.bucketForLocked(epoch)
	if b == nil {
		return // now predates every live bucket: the tag is already expired
	}
	h1, h2 := probes(&tag)
	r.rmu.Lock()
	for i := 0; i < r.hashes; i++ {
		pos := (h1 + uint64(i)*h2) & r.mask
		b.words[pos>>6] |= 1 << (pos & 63)
	}
	r.rmu.Unlock()
}

// bucketForLocked returns the bucket for epoch, recycling the slot when
// the epoch advanced past its current occupant. Returns nil for epochs
// older than the slot's occupant (already rotated out). Callers hold r.mu.
func (r *Ring) bucketForLocked(epoch int64) *ringBucket {
	b := &r.buckets[epoch%int64(len(r.buckets))]
	if b.epoch == epoch {
		return b
	}
	if b.epoch > epoch {
		return nil
	}
	r.rmu.Lock()
	clear(b.words)
	b.epoch = epoch
	r.rmu.Unlock()
	return b
}

// Seen reports whether the tag's bits are all set in any live bucket. It
// may report a false positive at the geometry's declared rate; it never
// reports false for a tag Added (or merged) within the retention window.
// Allocation-free: this is the serving-path check.
func (r *Ring) Seen(tag [puzzle.TagSize]byte) bool {
	h1, h2 := probes(&tag)
	r.rmu.RLock()
	defer r.rmu.RUnlock()
	for bi := range r.buckets {
		b := &r.buckets[bi]
		if b.epoch < 0 {
			continue
		}
		hit := true
		for i := 0; i < r.hashes; i++ {
			pos := (h1 + uint64(i)*h2) & r.mask
			if b.words[pos>>6]&(1<<(pos&63)) == 0 {
				hit = false
				break
			}
		}
		if hit {
			return true
		}
	}
	return false
}

// FilterBucket is one bucket's wire/exchange form.
type FilterBucket struct {
	Epoch int64
	Span  int64 // nanoseconds; merges require agreeing spans
	Words []uint64
}

// Snapshot appends copies of the ring's live buckets to dst and returns
// the extended slice (oldest epoch first, deterministically).
func (r *Ring) Snapshot(dst []FilterBucket) []FilterBucket {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := len(dst)
	r.rmu.RLock()
	for bi := range r.buckets {
		b := &r.buckets[bi]
		if b.epoch < 0 {
			continue
		}
		dst = append(dst, FilterBucket{
			Epoch: b.epoch,
			Span:  int64(r.span),
			Words: append([]uint64(nil), b.words...),
		})
	}
	r.rmu.RUnlock()
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Epoch < out[j-1].Epoch; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return dst
}

// Merge ORs peer buckets into the ring. Buckets with a different span or
// word count are skipped — geometry disagreement means the peer runs a
// different configuration, and a partial merge would corrupt the declared
// false-positive rate. Epochs older than a slot's occupant are dropped
// (already rotated out); newer epochs recycle the slot first. The
// operation is a per-bit OR: commutative, associative, idempotent.
func (r *Ring) Merge(buckets []FilterBucket) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range buckets {
		fb := &buckets[i]
		if fb.Span != int64(r.span) || len(fb.Words) != len(r.buckets[0].words) || fb.Epoch < 0 {
			continue
		}
		b := r.bucketForLocked(fb.Epoch)
		if b == nil {
			continue
		}
		r.rmu.Lock()
		for w := range b.words {
			b.words[w] |= fb.Words[w]
		}
		r.rmu.Unlock()
	}
}

// MergeFrom ORs another ring's live buckets into this one without copying
// bucket contents through a snapshot — the in-process exchange fast path
// (the simulation engine merges K rings every tick boundary; a frame-based
// snapshot would churn megabytes). Geometry must agree; mismatches are
// skipped like Merge. src is read-locked during the merge.
func (r *Ring) MergeFrom(src *Ring) {
	if r == src || src == nil {
		return
	}
	if src.span != r.span || src.mask != r.mask {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	src.rmu.RLock()
	defer src.rmu.RUnlock()
	for bi := range src.buckets {
		sb := &src.buckets[bi]
		if sb.epoch < 0 {
			continue
		}
		b := r.bucketForLocked(sb.epoch)
		if b == nil {
			continue
		}
		r.rmu.Lock()
		for w := range b.words {
			b.words[w] |= sb.words[w]
		}
		r.rmu.Unlock()
	}
}
