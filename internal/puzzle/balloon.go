package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The memory-hard backend is a self-contained balloon-hash variant
// (Boneh–Corrigan-Gibbs–Schechter): a buffer of `space` 32-byte blocks is
// filled sequentially from the preimage, then `time` rounds re-hash every
// block with its predecessor and balloonDelta data-dependent neighbours.
// The data-dependent indexing means the whole buffer must stay resident
// for the whole computation — the property that denies GPU/ASIC solvers
// the three-orders-of-magnitude discount they enjoy on plain SHA-256,
// because the cost is memory bandwidth, not compression-function
// throughput. Every primitive is crypto/sha256; no new dependencies.
//
// A solution to a d-difficult balloon challenge is a nonce such that
// balloon(canonical(challenge) ‖ nonce) has at least d leading zero bits
// — the same difficulty dial as hashcash, but each attempt costs
// space·(1+(delta+1)·time) hashes over a space·32-byte working set
// instead of one hash over 64 bytes.
const (
	// balloonBlockSize is the buffer block size (one SHA-256 digest).
	balloonBlockSize = sha256.Size

	// balloonDelta is the number of data-dependent neighbours mixed into
	// each block per round (the paper's δ=3).
	balloonDelta = 3

	// DefaultBalloonSpace and DefaultBalloonRounds are the production
	// defaults: 256 blocks × 32 B = 8 KiB working set, 2 mixing rounds,
	// ≈2300 hashes per attempt (≈2^11), so a d-difficult balloon
	// challenge prices like a (d+11)-difficult hashcash one on a CPU —
	// and far worse than that on hardware that discounts raw SHA-256.
	DefaultBalloonSpace  = 256
	DefaultBalloonRounds = 2

	// Parameter sanity bounds. Space and rounds ride inside the
	// HMAC-authenticated challenge, so a verifier only ever evaluates
	// parameters its own issuer signed; the bounds exist to keep a
	// misconfigured deployment from turning verification into a
	// self-inflicted memory DoS (2^16 blocks = 2 MiB per scratch).
	minBalloonSpace  = 2
	maxBalloonSpace  = 1 << 16
	minBalloonRounds = 1
	maxBalloonRounds = 64
)

// balloonScratch is the pooled working state of one balloon evaluation:
// the block buffer plus an input scratch for counter-prefixed hashing.
// Pooling it keeps repeated verifications allocation-free; the buffer
// grows to the largest space seen and stays there.
type balloonScratch struct {
	blocks []byte
	in     []byte
}

var balloonPool = sync.Pool{
	New: func() any {
		return &balloonScratch{
			blocks: make([]byte, DefaultBalloonSpace*balloonBlockSize),
			in:     make([]byte, 0, 8+2*balloonBlockSize+binaryFixedSize+64),
		}
	},
}

// balloonDigest evaluates the balloon function over preimage with the
// given cost parameters. Out-of-range parameters are clamped to the
// sanity bounds (authenticated challenges never carry any, see above).
func balloonDigest(preimage []byte, space, rounds uint32) [sha256.Size]byte {
	if space < minBalloonSpace {
		space = minBalloonSpace
	} else if space > maxBalloonSpace {
		space = maxBalloonSpace
	}
	if rounds < minBalloonRounds {
		rounds = minBalloonRounds
	} else if rounds > maxBalloonRounds {
		rounds = maxBalloonRounds
	}

	s := balloonPool.Get().(*balloonScratch)
	need := int(space) * balloonBlockSize
	if cap(s.blocks) < need {
		s.blocks = make([]byte, need)
	}
	blocks := s.blocks[:need]
	var cnt uint64

	// hashInto writes H(le64(cnt++) ‖ a ‖ b) into dst. dst may alias a
	// or b: the input is staged through s.in before hashing.
	hashInto := func(dst, a, b []byte) {
		in := s.in[:0]
		in = binary.LittleEndian.AppendUint64(in, cnt)
		cnt++
		in = append(in, a...)
		in = append(in, b...)
		s.in = in
		sum := sha256.Sum256(in)
		copy(dst, sum[:])
	}

	block := func(m uint32) []byte {
		return blocks[m*balloonBlockSize : (m+1)*balloonBlockSize]
	}

	// Expand: fill the buffer sequentially from the preimage.
	hashInto(block(0), preimage, nil)
	for m := uint32(1); m < space; m++ {
		hashInto(block(m), block(m-1), nil)
	}

	// Mix: every round re-hashes each block with its predecessor, then
	// with balloonDelta neighbours chosen by the block's own current
	// bytes — the data-dependent step that forces residency.
	for r := uint32(0); r < rounds; r++ {
		for m := uint32(0); m < space; m++ {
			prev := block((m + space - 1) % space)
			hashInto(block(m), prev, block(m))
			for i := 0; i < balloonDelta; i++ {
				idx := uint32(binary.LittleEndian.Uint64(block(m)[i*8:]) % uint64(space))
				hashInto(block(m), block(m), block(idx))
			}
		}
	}

	var out [sha256.Size]byte
	copy(out[:], block(space-1))
	balloonPool.Put(s)
	return out
}
