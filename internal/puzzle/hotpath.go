package puzzle

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
)

// macScratch bundles the per-call state the issue/verify hot paths reuse
// through a pool: a keyed HMAC instance (Reset is cheap — crypto/hmac
// snapshots the keyed pads after first use), an append buffer for the
// canonical encoding, a tag output buffer, and seed scratch for issuance.
// Pooling this state removes the hmac.New + buffer allocations that
// otherwise dominate B/op on Issue and Verify.
type macScratch struct {
	mac   hash.Hash
	buf   []byte
	sum   []byte
	seed  [SeedSize]byte
	seeds []byte // batch issuance entropy, read one syscall per chunk
}

// macPool pools macScratch values keyed to one HMAC key.
type macPool struct {
	pool sync.Pool
}

// newMACPool builds a pool whose scratches are keyed with key. The key is
// copied once; scratches are created lazily per P as needed.
func newMACPool(key []byte) *macPool {
	key = append([]byte(nil), key...)
	p := &macPool{}
	p.pool.New = func() any {
		return &macScratch{
			mac: hmac.New(sha256.New, key),
			buf: make([]byte, 0, binaryFixedSize+64),
			sum: make([]byte, 0, sha256.Size),
		}
	}
	return p
}

func (p *macPool) get() *macScratch  { return p.pool.Get().(*macScratch) }
func (p *macPool) put(s *macScratch) { p.pool.Put(s) }

// tagOf computes the HMAC-SHA256 tag over ch's canonical form without
// allocating, leaving the canonical bytes in s.buf for further use (the
// verifier appends the nonce to them to check the solution digest).
func (s *macScratch) tagOf(ch *Challenge) [TagSize]byte {
	s.buf = ch.appendCanonical(s.buf[:0])
	return s.sumCanonical()
}

// sumCanonical computes the HMAC-SHA256 tag over the canonical bytes
// already sitting in s.buf (callers that built the canonical form for an
// AuthCache probe reuse it as the MAC input on a miss).
func (s *macScratch) sumCanonical() [TagSize]byte {
	s.mac.Reset()
	s.mac.Write(s.buf)
	s.sum = s.mac.Sum(s.sum[:0])
	var out [TagSize]byte
	copy(out[:], s.sum)
	return out
}
