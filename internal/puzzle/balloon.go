package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
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
// A solution to a d-difficult balloon challenge is a nonce such that,
// with preimage = canonical(challenge) ‖ nonce,
//
//	SHA-256(preimage) has at least S leading zero bits (the shell), and
//	balloon(preimage) has at least d leading zero bits (the work check).
//
// The work check is the same difficulty dial as hashcash, but each
// evaluation costs cost = space·(1+(delta+1)·time) hashes over a
// space·32-byte working set instead of one hash over 64 bytes. The shell
// is a hashcash puzzle in front of it: S = max(0, ⌊log₂ cost⌋ − 3),
// derived from the authenticated cost parameters, so cost/2^S lies in
// [8, 16) whenever cost ≥ 8. A verifier runs the shell first, so a
// nonce that fails it costs one hash. It claims the seed before the
// evaluation, so with a replay cache each challenge buys at most one
// evaluation per node, and only for a shell-passing nonce: ≈ 2^S forger
// hashes. On average one forger hash then buys at most 8–16 server
// hashes instead of ≈ cost. An honest solver pays the same 2^S per
// evaluation, at most 1/8 on top.
const (
	// balloonBlockSize is the buffer block size (one SHA-256 digest).
	balloonBlockSize = sha256.Size

	// balloonDelta is the number of data-dependent neighbours mixed into
	// each block per round (the paper's δ=3).
	balloonDelta = 3

	// DefaultBalloonSpace and DefaultBalloonRounds are the production
	// defaults: 256 blocks × 32 B = 8 KiB working set, 2 mixing rounds,
	// ≈2300 hashes per evaluation plus a 2^8-hash shell (≈2^11 in all),
	// so a d-difficult balloon challenge prices like a (d+11)-difficult
	// hashcash one on a CPU — and far worse than that on hardware that
	// discounts raw SHA-256.
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

	// balloonShellSlack is how many bits the shell sits below ⌊log₂ cost⌋:
	// the shell costs the solver between 1/16 and 1/8 of an evaluation.
	balloonShellSlack = 3
)

// clampBalloon clamps cost parameters to the sanity bounds, the values
// balloonDigest and balloonShellBits actually evaluate.
func clampBalloon(space, rounds uint32) (uint32, uint32) {
	return min(max(space, minBalloonSpace), maxBalloonSpace),
		min(max(rounds, minBalloonRounds), maxBalloonRounds)
}

// balloonCost is the hash evaluations of one balloon evaluation.
func balloonCost(space, rounds uint32) uint64 {
	return uint64(space) * (1 + (balloonDelta+1)*uint64(rounds))
}

// balloonShellBits is S, the shell's difficulty for the given cost
// parameters: max(0, ⌊log₂ cost⌋ − balloonShellSlack). It is not a wire
// field; both sides derive it from the parameters under the HMAC.
func balloonShellBits(space, rounds uint32) int {
	return max(0, bits.Len64(balloonCost(clampBalloon(space, rounds)))-1-balloonShellSlack)
}

// passesShell reports whether preimage (canonical ‖ nonce) clears a
// hashcash shell of shell leading zero bits. Every balloon caller —
// Meets, the verifier and both solvers — runs it before balloonDigest,
// so a nonce that fails it never pays a balloon evaluation.
func passesShell(preimage []byte, shell int) bool {
	if shell == 0 {
		return true
	}
	d := sha256.Sum256(preimage)
	return CountLeadingZeroBits(d[:]) >= shell
}

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
	space, rounds = clampBalloon(space, rounds)

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
