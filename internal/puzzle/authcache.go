package puzzle

import (
	"bytes"
	"crypto/subtle"
	"sync"
)

// AuthCache is a fixed-size memo of authenticated challenges shared between
// a co-located Issuer and Verifier (the common single-process deployment,
// and the one core.Framework always builds). Every entry is a
// (canonical bytes, tag) pair that either the issuer produced under its own
// key or the verifier has already authenticated with a full HMAC check, so
// a presented challenge that is byte-identical to an entry is authentic by
// construction — the verifier can skip recomputing the HMAC and check
// equality instead. Anything else (a cache miss, a colliding slot, a
// binding too long for the inline buffer) falls back to the full HMAC
// path, so the cache changes verification cost, never its outcome.
//
// The cache holds no secrets: canonical bytes and tags are exactly what
// clients receive in their challenges. The tag comparison is still
// constant-time out of hygiene, though a mismatch only ever compares a
// presented tag against an authentic tag the presenter does not hold.
//
// Slots are indexed by challenge seed. Seeds come from crypto/rand, so the
// index bits are uniform and an attacker cannot aim evictions; eviction is
// in any case only a performance event, never a correctness one.
//
// AuthCache is safe for concurrent use; each slot carries its own mutex,
// held only for a bounded copy or compare.
type AuthCache struct {
	slots []authSlot
	mask  uint32 // len(slots)-1; len is always a power of two
}

const (
	// authCacheSlots is the default slot count (power of two). At ~200 B
	// per slot the whole cache stays under half a megabyte while giving an
	// issued challenge a 1/2048 chance per subsequent issuance of losing
	// its slot before redemption. Deployments expecting more concurrent
	// outstanding challenges size up via NewAuthCacheSize.
	authCacheSlots = 2048

	// authCacheMinSlots / authCacheMaxSlots clamp NewAuthCacheSize.
	// The ceiling (4M slots, ~800 MB) is a guard against a mistyped spec,
	// not a recommendation.
	authCacheMinSlots = 64
	authCacheMaxSlots = 1 << 22

	// authCacheMaxCanonical bounds the inline canonical buffer. It covers
	// every binding up to 99 bytes (an IPv6 literal is at most 45);
	// longer canonicals simply never enter the cache.
	authCacheMaxCanonical = 160
)

type authSlot struct {
	mu  sync.Mutex
	n   uint16
	tag [TagSize]byte
	buf [authCacheMaxCanonical]byte
}

// NewAuthCache returns an empty cache with the default slot count, ready
// to be shared between an Issuer (via WithIssuerAuthCache) and a Verifier
// (via WithVerifierAuthCache).
func NewAuthCache() *AuthCache {
	return NewAuthCacheSize(authCacheSlots)
}

// NewAuthCacheSize returns an empty cache with at least slots slots,
// rounded up to the next power of two and clamped to [64, 1<<22].
// Sizing rule of thumb: the hit rate for a redeemed challenge is about
// 1 - outstanding/slots, where outstanding is the number of challenges
// issued but not yet redeemed at any instant — pick slots ≥ 10× the
// expected outstanding count. A miss is never an error; it only costs
// the full HMAC recomputation.
func NewAuthCacheSize(slots int) *AuthCache {
	if slots < authCacheMinSlots {
		slots = authCacheMinSlots
	}
	if slots > authCacheMaxSlots {
		slots = authCacheMaxSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	return &AuthCache{slots: make([]authSlot, n), mask: uint32(n - 1)}
}

// slotFor maps a (seed, backend) pair to its slot. Seed bytes are
// uniform, so four of them index the table directly (covering every
// legal size up to the 4M-slot ceiling); the backend ID is mixed in so
// the cache is keyed by backend identity as well — entries from
// different puzzle backends can never alias onto one another's slots, on
// top of the canonical bytes (which embed the backend) already making a
// cross-backend byte match impossible.
func (c *AuthCache) slotFor(seed *[SeedSize]byte, backend BackendID) *authSlot {
	w := uint32(seed[0]) | uint32(seed[1])<<8 | uint32(seed[2])<<16 | uint32(seed[3])<<24
	idx := (w ^ uint32(backend)*0x9E37) & c.mask
	return &c.slots[idx]
}

// Slots reports the cache's slot count (a power of two).
func (c *AuthCache) Slots() int { return len(c.slots) }

// store records an authenticated (canonical, tag) pair. The caller attests
// authenticity: the issuer calls it with tags it just computed, the
// verifier only after hmac.Equal has passed.
func (c *AuthCache) store(canonical []byte, tag *[TagSize]byte, seed *[SeedSize]byte, backend BackendID) {
	if len(canonical) > authCacheMaxCanonical {
		return
	}
	s := c.slotFor(seed, backend)
	s.mu.Lock()
	s.n = uint16(len(canonical))
	copy(s.buf[:], canonical)
	s.tag = *tag
	s.mu.Unlock()
}

// match reports whether (canonical, tag) is byte-identical to the cached
// authenticated pair in the seed's slot. A false return says nothing about
// authenticity — the caller must run the full HMAC check.
func (c *AuthCache) match(canonical []byte, tag *[TagSize]byte, seed *[SeedSize]byte, backend BackendID) bool {
	if len(canonical) > authCacheMaxCanonical {
		return false
	}
	s := c.slotFor(seed, backend)
	s.mu.Lock()
	ok := int(s.n) == len(canonical) &&
		bytes.Equal(s.buf[:s.n], canonical) &&
		subtle.ConstantTimeCompare(s.tag[:], tag[:]) == 1
	s.mu.Unlock()
	return ok
}
