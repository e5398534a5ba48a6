// Package puzzle implements the Proof-of-Work substrate of the framework:
// challenge issuance, client-side solving, and server-side verification.
//
// A challenge binds together a random seed (defeating pre-computation), the
// issue timestamp and a TTL (bounding solution lifetime), the required
// difficulty, an opaque client binding (typically the client IP, as in
// the paper), and the puzzle backend's ID and cost parameters. Every
// backend shares this one backend-tagged wire format. The issuer
// authenticates all of it with an HMAC-SHA256 tag, so the backend byte
// cannot be relabelled, and verification is stateless apart from an
// optional replay cache that enforces single use of each seed.
//
// A solution to a d-difficult challenge is a nonce such that
//
//	SHA-256(canonical(challenge) ‖ nonce)
//
// has at least d leading zero bits. The expected number of hash evaluations
// is 2^d, which is what makes difficulty an adaptive cost dial: the policy
// module chooses d per request from the client's reputation score. The
// memory-hard backend swaps the SHA-256 for a balloon evaluation and puts
// a SHA-256 shell of S leading zero bits in front of it (balloon.go).
//
// Verification runs its checks cheapest first, in one order for every
// backend, and stops at the first failure:
//
//  1. wire version and backend, then the difficulty range;
//  2. the HMAC tag (or an AuthCache hit);
//  3. the client binding, then freshness (issue time and TTL);
//  4. a read-only replay probe: the fleet tag filter, then the local
//     replay cache;
//  5. the SHA-256 half of the work check: hashcash's whole check, the
//     balloon shell;
//  6. the atomic claim of the seed in the replay cache;
//  7. for balloon, the rest of the work check: one balloon evaluation;
//  8. publication of the redeemed tag to the fleet.
//
// Replay state is consulted only for authentic, correctly bound, fresh
// challenges, and a replayed token is rejected before any puzzle
// evaluation. Nothing is written before step 6, so a nonce that fails
// the SHA-256 check burns nothing, and the claim is the single arbiter
// between racing redemptions. A balloon nonce that clears the shell but
// fails step 7 leaves its seed claimed (never published to the fleet),
// so each shell solve buys at most one balloon evaluation per node.
package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

const (
	// Version2 is the token wire format's one accepted version byte. The
	// canonical bytes carry the backend ID and the backend's cost
	// parameters under the HMAC, so a challenge relabelled to another
	// backend fails authentication.
	Version2 = 2

	// SeedSize is the byte length of the anti-precomputation seed.
	SeedSize = 16

	// TagSize is the byte length of the HMAC-SHA256 authentication tag.
	TagSize = sha256.Size

	// MinDifficulty is the smallest difficulty the framework issues. The
	// paper's easiest policy starts at a 1-difficult puzzle.
	MinDifficulty = 1

	// MaxDifficulty is the hard upper bound on difficulty: a SHA-256 digest
	// has 256 bits, but anything beyond 64 leading zero bits is beyond
	// plausible client work, so the encoding caps there.
	MaxDifficulty = 64

	// DefaultTTL is how long an issued challenge stays valid unless the
	// issuer is configured otherwise. It must comfortably exceed the worst
	// solve time a policy can impose on a legitimate client.
	DefaultTTL = 2 * time.Minute

	// maxBindingLen bounds the client-binding string on the wire.
	maxBindingLen = 255

	// magic prefixes every canonical encoding so that tags and hashes
	// from this protocol cannot collide with other uses of the same key.
	magic = "AIPoW/2\x00"
)

// Typed failures returned by issuance and verification. Callers are expected
// to branch with errors.Is; all verification failures are also ErrVerify.
var (
	// ErrVerify is the umbrella error wrapped by every verification failure.
	ErrVerify = errors.New("puzzle: verification failed")

	// ErrBadVersion reports a wire-format version or backend the verifier
	// does not accept.
	ErrBadVersion = errors.New("puzzle: unsupported version")

	// ErrInvalidDifficulty reports a difficulty outside the permitted range.
	ErrInvalidDifficulty = errors.New("puzzle: difficulty out of range")

	// ErrBadTag reports an HMAC authentication failure: the challenge was
	// not issued by this key or was tampered with in transit.
	ErrBadTag = errors.New("puzzle: challenge authentication failed")

	// ErrExpired reports a solution submitted after the challenge TTL.
	ErrExpired = errors.New("puzzle: challenge expired")

	// ErrNotYetValid reports a challenge whose issue time is in the future
	// beyond the allowed clock skew.
	ErrNotYetValid = errors.New("puzzle: challenge not yet valid")

	// ErrWrongSolution reports a nonce whose digest does not meet the
	// required difficulty.
	ErrWrongSolution = errors.New("puzzle: solution does not meet difficulty")

	// ErrReplayed reports a seed that was already redeemed.
	ErrReplayed = errors.New("puzzle: challenge already redeemed")

	// ErrFleetReplay reports a replay caught by the cluster's gossiped tag
	// filter rather than this node's local cache. It wraps ErrReplayed, so
	// errors.Is(err, ErrReplayed) matches both; branch on ErrFleetReplay
	// only to attribute the catch (tracing, per-plane counters).
	ErrFleetReplay = fmt.Errorf("%w (fleet filter)", ErrReplayed)

	// ErrBindingMismatch reports a solution presented by a client other
	// than the one the challenge was issued to.
	ErrBindingMismatch = errors.New("puzzle: client binding mismatch")

	// ErrNonceExhausted reports that the 32-bit nonce space was searched
	// without finding a solution. With d ≤ 22 the probability of this is
	// below 1e-9; it signals a mis-configured (too high) difficulty.
	ErrNonceExhausted = errors.New("puzzle: nonce space exhausted")

	// ErrBindingTooLong reports a client binding exceeding the wire limit.
	ErrBindingTooLong = errors.New("puzzle: binding exceeds 255 bytes")
)

// Challenge is one issued puzzle. The zero value is not a valid challenge;
// obtain one from an Issuer or by decoding a wire string.
type Challenge struct {
	// Version is the wire-format version byte; issuers write Version2.
	Version uint8

	// Backend identifies the puzzle algorithm. It rides under the HMAC,
	// so a verifier never evaluates a challenge under another backend
	// than the one its issuer signed for.
	Backend BackendID

	// Space and Rounds are the memory-hard cost parameters (balloon
	// backend; zero otherwise). They ride inside the authenticated
	// canonical bytes, so a verifier only evaluates parameters its
	// issuer signed.
	Space  uint32
	Rounds uint32

	// Seed is the unique random value that makes each challenge fresh.
	Seed [SeedSize]byte

	// IssuedAt is the issuer's clock reading at issue time, at nanosecond
	// granularity.
	IssuedAt time.Time

	// TTL is how long after IssuedAt the challenge may be redeemed.
	TTL time.Duration

	// Difficulty is the required number of leading zero bits, in
	// [MinDifficulty, MaxDifficulty].
	Difficulty int

	// Binding ties the challenge to a client identity (the paper uses the
	// client IP address). Verification rejects solutions presented under a
	// different binding.
	Binding string

	// Tag authenticates all fields above under the issuer's key.
	Tag [TagSize]byte
}

// ExpiresAt reports the instant after which the challenge is no longer
// redeemable.
func (c Challenge) ExpiresAt() time.Time { return c.IssuedAt.Add(c.TTL) }

// canonical renders every authenticated field into a fixed, unambiguous
// byte layout. It is both the HMAC input and the hash preimage prefix.
func (c Challenge) canonical() []byte {
	return c.appendCanonical(make([]byte, 0, binaryFixedSize+len(c.Binding)))
}

// appendCanonical appends the canonical form to b and returns the extended
// slice; the hot paths pass pooled buffers to avoid per-call allocation.
func (c *Challenge) appendCanonical(b []byte) []byte {
	b = append(b, magic...)
	b = append(b, c.Version)
	b = append(b, byte(c.Backend))
	b = binary.BigEndian.AppendUint32(b, c.Space)
	b = binary.BigEndian.AppendUint32(b, c.Rounds)
	b = append(b, c.Seed[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(c.IssuedAt.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(c.TTL))
	b = binary.BigEndian.AppendUint16(b, uint16(c.Difficulty))
	b = binary.BigEndian.AppendUint16(b, uint16(len(c.Binding)))
	b = append(b, c.Binding...)
	return b
}

// Solution pairs a challenge with the nonce that solves it.
type Solution struct {
	Challenge Challenge

	// Nonce is the value appended to the preimage. The paper specifies a
	// 32-bit nonce; values above 2^32-1 only appear when a Solver is run
	// in extended mode.
	Nonce uint64
}

// appendNonce encodes the nonce exactly as hashed: 4 big-endian bytes for
// 32-bit values (the paper's "32-bit string"), 8 bytes for extended nonces.
func appendNonce(b []byte, nonce uint64) []byte {
	if nonce <= math.MaxUint32 {
		return binary.BigEndian.AppendUint32(b, uint32(nonce))
	}
	return binary.BigEndian.AppendUint64(b, nonce)
}

// Digest computes the digest the work check compares to the difficulty:
// a plain SHA-256 of canonical‖nonce for hashcash challenges, the balloon
// function over the same preimage for the memory-hard backend (whose
// nonces must also clear the shell; see Meets).
func (c Challenge) Digest(nonce uint64) [sha256.Size]byte {
	pre := appendNonce(c.canonical(), nonce)
	if c.Backend == BackendBalloon {
		return balloonDigest(pre, c.Space, c.Rounds)
	}
	return sha256.Sum256(pre)
}

// Meets reports whether nonce solves the challenge at its difficulty.
func (c Challenge) Meets(nonce uint64) bool {
	pre := appendNonce(c.canonical(), nonce)
	return c.passesSHA256(pre) && c.passesBalloon(pre)
}

// passesSHA256 is the plain SHA-256 half of the work check on pre, the
// canonical bytes followed by a nonce: the whole check for hashcash, the
// shell for balloon. The verifier claims the seed between the two halves.
func (c *Challenge) passesSHA256(pre []byte) bool {
	if c.Backend == BackendBalloon {
		return passesShell(pre, balloonShellBits(c.Space, c.Rounds))
	}
	d := sha256.Sum256(pre)
	return CountLeadingZeroBits(d[:]) >= c.Difficulty
}

// passesBalloon is the rest of the work check: for a balloon challenge,
// one balloon evaluation of pre against the difficulty; nothing for
// hashcash.
func (c *Challenge) passesBalloon(pre []byte) bool {
	if c.Backend != BackendBalloon {
		return true
	}
	d := balloonDigest(pre, c.Space, c.Rounds)
	return CountLeadingZeroBits(d[:]) >= c.Difficulty
}

// CountLeadingZeroBits reports the number of consecutive zero bits at the
// start of b, reading bytes most-significant-bit first.
func CountLeadingZeroBits(b []byte) int {
	n := 0
	for _, by := range b {
		if by == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(by)
		break
	}
	return n
}

// ExpectedAttempts reports the expected number of hash evaluations to solve
// a d-difficult puzzle (2^d).
func ExpectedAttempts(d int) float64 { return math.Exp2(float64(d)) }

// ExpectedSolveTime reports the expected solve duration for a d-difficult
// puzzle at the given hash rate (hashes per second). It returns a very
// large value rather than overflowing when the rate is non-positive.
func ExpectedSolveTime(d int, hashRate float64) time.Duration {
	if hashRate <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := ExpectedAttempts(d) / hashRate
	if sec > float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// validateDifficulty rejects difficulties outside the protocol range.
func validateDifficulty(d int) error {
	if d < MinDifficulty || d > MaxDifficulty {
		return fmt.Errorf("%w: %d not in [%d, %d]", ErrInvalidDifficulty, d, MinDifficulty, MaxDifficulty)
	}
	return nil
}
