package puzzle

import (
	"crypto/hmac"
	"fmt"
	"time"
)

// Verifier checks solutions. It corresponds to the paper's lightweight
// "puzzle verification" module: one HMAC plus one SHA-256 evaluation per
// solution, independent of difficulty — the asymmetry that makes PoW a
// defense (see the Asymmetry benchmark).
//
// Verifier is safe for concurrent use.
type Verifier struct {
	key    []byte
	replay *ReplayCache
	skew   time.Duration
	macs   *macPool
	cache  *AuthCache
	tags   TagExchange

	// backend is the puzzle algorithm this verifier accepts; wantBackend
	// is its wire identity, pinned at construction. A token with another
	// version byte or backend is ErrBadVersion, fail-closed, before the
	// HMAC is computed.
	backend     Backend
	wantBackend BackendID
}

// VerifierOption customizes a Verifier.
type VerifierOption func(*Verifier)

// WithReplayCache enables single-use enforcement of challenge seeds.
// Without it, a solved challenge can be redeemed repeatedly until expiry.
func WithReplayCache(c *ReplayCache) VerifierOption {
	return func(v *Verifier) { v.replay = c }
}

// WithClockSkew sets the tolerated clock skew between issuer and verifier
// (relevant when they are separate processes). Defaults to 2 s.
func WithClockSkew(skew time.Duration) VerifierOption {
	return func(v *Verifier) { v.skew = skew }
}

// WithVerifierBackend selects the puzzle algorithm this verifier
// accepts; it must match the paired issuer's WithIssuerBackend. Defaults
// to Hashcash(). Solutions carrying another version byte or backend are
// rejected with ErrBadVersion.
func WithVerifierBackend(b Backend) VerifierOption {
	return func(v *Verifier) { v.backend = b }
}

// WithVerifierAuthCache authenticates challenges that are byte-identical
// to an entry of c — a challenge the sharing issuer produced or this
// verifier already HMAC-checked — by equality instead of an HMAC
// recomputation. A miss always falls back to the full HMAC check, so the
// cache affects cost, never outcomes. core.Framework wires this
// automatically; standalone verifiers (separate process from the issuer)
// gain little beyond repeat presentations.
func WithVerifierAuthCache(c *AuthCache) VerifierOption {
	return func(v *Verifier) { v.cache = c }
}

// TagExchange is the distributed replay-suppression seam: a fleet-wide
// view of redeemed challenge tags, fed and consulted by every node's
// verifier. The cluster package's Node implements it over time-bucketed
// rotating Bloom filters merged from peers.
//
// Tags pass by value ([TagSize]byte, one HMAC output) so the hot-path
// call sites never force a challenge to escape to the heap; SeenTag must
// therefore be cheap and allocation-free — it runs on the serving path of
// every authentic, fresh verification, ahead of the work check.
type TagExchange interface {
	// SeenTag reports whether the tag was already redeemed anywhere in
	// the fleet as far as this node knows. It may err on the side of
	// suppression (a Bloom false positive rejects a fresh solution at its
	// declared rate) but never misses a tag it was told about.
	SeenTag(tag [TagSize]byte) bool

	// RedeemedTag records a successful local redemption, made at the
	// verification instant at, for propagation to peers.
	RedeemedTag(tag [TagSize]byte, at time.Time)
}

// WithTagExchange consults x on every verification: a solution whose
// challenge tag the fleet has already seen fails closed with ErrReplayed,
// exactly like a local replay-cache hit, and every successful redemption
// is published back through x. SeenTag is probed just before the local
// replay cache — after authenticity, binding and freshness, before the
// work check — so a replayed token never costs a puzzle evaluation.
// RedeemedTag runs only after the claim and the whole work check pass,
// so a failed attempt is never published fleet-wide. (A balloon nonce
// that clears the shell but misses the target burns the seed locally;
// see VerifyAt.)
func WithTagExchange(x TagExchange) VerifierOption {
	return func(v *Verifier) { v.tags = x }
}

// NewVerifier returns a Verifier holding the issuer's HMAC key.
func NewVerifier(key []byte, opts ...VerifierOption) (*Verifier, error) {
	if len(key) < minKeyLen {
		return nil, fmt.Errorf("%w (got %d)", ErrKeyTooShort, len(key))
	}
	v := &Verifier{
		key:     append([]byte(nil), key...),
		skew:    2 * time.Second,
		backend: Hashcash(),
	}
	for _, opt := range opts {
		opt(v)
	}
	if v.skew < 0 {
		return nil, fmt.Errorf("puzzle: negative clock skew %v", v.skew)
	}
	v.wantBackend = v.backend.ID()
	v.macs = newMACPool(v.key)
	return v, nil
}

// Backend reports the puzzle algorithm this verifier accepts.
func (v *Verifier) Backend() Backend { return v.backend }

// Verify checks that sol is an authentic, fresh, unredeemed, and correct
// solution presented by the client identified by binding. An empty binding
// skips the binding check (for callers that have already authenticated the
// presenter). All failures wrap ErrVerify plus a specific sentinel. The
// checks run cheapest first, in the order the package comment lists.
// Verify reads the wall clock once; VerifyAt takes the instant instead.
func (v *Verifier) Verify(sol Solution, binding string) error {
	return v.VerifyAt(&sol, binding, time.Now())
}

// VerifyAt is Verify at the caller's instant now, which must come from
// the clock the paired issuer stamped IssuedAt with. Every time-dependent
// step — freshness, the replay probe and claim, the fleet publication —
// sees this one instant, so a token cannot pass freshness and then find
// its own redemption already swept as expired. The solution is taken by
// pointer purely to spare the hot path two ~150-byte struct copies; it is
// never modified.
func (v *Verifier) VerifyAt(sol *Solution, binding string, now time.Time) error {
	ch := &sol.Challenge
	if ch.Version != Version2 || ch.Backend != v.wantBackend {
		return fmt.Errorf("%w: %w: got v%d/%s, verifier accepts v%d/%s",
			ErrVerify, ErrBadVersion, ch.Version, ch.Backend, Version2, v.wantBackend)
	}
	if err := validateDifficulty(ch.Difficulty); err != nil {
		return fmt.Errorf("%w: %w", ErrVerify, err)
	}

	// Authenticate before trusting any field. The pooled scratch computes
	// the tag without allocating and keeps the canonical bytes around so
	// the solution digest below reuses them as its preimage prefix. A
	// challenge byte-identical to an AuthCache entry is authentic without
	// the HMAC: the cache only ever holds pairs the co-located issuer
	// produced or this verifier already checked.
	s := v.macs.get()
	defer v.macs.put(s)
	s.buf = ch.appendCanonical(s.buf[:0])
	if v.cache == nil || !v.cache.match(s.buf, &ch.Tag, &ch.Seed, ch.Backend) {
		tag := s.sumCanonical()
		if !hmac.Equal(tag[:], ch.Tag[:]) {
			return fmt.Errorf("%w: %w", ErrVerify, ErrBadTag)
		}
		if v.cache != nil {
			v.cache.store(s.buf, &ch.Tag, &ch.Seed, ch.Backend)
		}
	}

	if binding != "" && binding != ch.Binding {
		return fmt.Errorf("%w: %w: challenge bound to %q, presented by %q",
			ErrVerify, ErrBindingMismatch, ch.Binding, binding)
	}

	if ch.IssuedAt.After(now.Add(v.skew)) {
		return fmt.Errorf("%w: %w: issued %v ahead of verifier clock",
			ErrVerify, ErrNotYetValid, ch.IssuedAt.Sub(now))
	}
	if now.After(ch.ExpiresAt().Add(v.skew)) {
		return fmt.Errorf("%w: %w: expired %v ago",
			ErrVerify, ErrExpired, now.Sub(ch.ExpiresAt()))
	}

	// Probe replay state before paying for the work check: a redeemed
	// token costs a map lookup, not a balloon fill. The probe only reads.
	// The fleet filter goes first and
	// rejects identically as far as errors.Is(ErrReplayed) goes;
	// ErrFleetReplay only attributes the catch to the gossiped filter so
	// traces can tell the two planes apart.
	if v.tags != nil && v.tags.SeenTag(ch.Tag) {
		return fmt.Errorf("%w: %w", ErrVerify, ErrFleetReplay)
	}
	if v.replay != nil && v.replay.containsAt(ch.Seed, now) {
		return fmt.Errorf("%w: %w", ErrVerify, ErrReplayed)
	}

	// The work check, in two halves around the claim; together they are
	// ch.Meets(sol.Nonce), re-using the canonical bytes already in s.buf
	// instead of re-encoding them. Only authenticated, fresh, unredeemed
	// challenges reach it, so balloon cost parameters are always ones
	// this deployment's issuer signed. ch.Backend was pinned to
	// v.wantBackend by the first check. The first half is one SHA-256:
	// hashcash's whole check, balloon's shell. A nonce that fails it
	// burns nothing.
	s.buf = appendNonce(s.buf, sol.Nonce)
	if !ch.passesSHA256(s.buf) {
		return fmt.Errorf("%w: %w: nonce %d", ErrVerify, ErrWrongSolution, sol.Nonce)
	}

	// Claim before the balloon evaluation. Remember is the single
	// arbiter: of two redemptions racing past the probe, exactly one
	// claims the seed. A balloon nonce that clears the shell but misses
	// the target leaves the seed claimed, so one shell solve buys at most
	// one balloon evaluation on this node, however often or concurrently
	// it is resent.
	if v.replay != nil && !v.replay.rememberAt(ch.Seed, ch.ExpiresAt().Add(v.skew), now) {
		return fmt.Errorf("%w: %w", ErrVerify, ErrReplayed)
	}
	if !ch.passesBalloon(s.buf) {
		return fmt.Errorf("%w: %w: nonce %d", ErrVerify, ErrWrongSolution, sol.Nonce)
	}
	if v.tags != nil {
		v.tags.RedeemedTag(ch.Tag, now)
	}
	return nil
}
