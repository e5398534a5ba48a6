package puzzle

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"
)

// minKeyLen is the minimum HMAC key length the issuer accepts; shorter keys
// give away the only secret in the protocol.
const minKeyLen = 16

// ErrKeyTooShort reports an HMAC key below the minimum safe length.
var ErrKeyTooShort = errors.New("puzzle: key shorter than 16 bytes")

// Issuer generates authenticated challenges. It corresponds to the paper's
// "puzzle generation" module: it collects the request-related data
// (timestamp, unique seed) and the difficulty chosen by the policy module,
// and relays the result to the client.
//
// Issuer is safe for concurrent use.
type Issuer struct {
	key           []byte
	rand          io.Reader
	ttl           time.Duration
	maxDifficulty int
	macs          *macPool
	cache         *AuthCache

	// backend is the puzzle algorithm this issuer signs for; the wire
	// fields below are precomputed from it at construction so Issue
	// writes plain struct fields instead of making interface calls on
	// the hot path.
	backend   Backend
	backendID BackendID
	space     uint32
	rounds    uint32
}

// IssuerOption customizes an Issuer.
type IssuerOption func(*Issuer)

// WithIssuerRand injects the seed entropy source. Defaults to crypto/rand.
func WithIssuerRand(r io.Reader) IssuerOption {
	return func(i *Issuer) { i.rand = r }
}

// WithTTL sets how long issued challenges stay redeemable. Defaults to
// DefaultTTL.
func WithTTL(ttl time.Duration) IssuerOption {
	return func(i *Issuer) { i.ttl = ttl }
}

// WithIssuerMaxDifficulty caps the difficulty this issuer will sign.
// Defaults to 32, half the protocol ceiling, because nothing a policy can
// legitimately ask for exceeds it.
func WithIssuerMaxDifficulty(d int) IssuerOption {
	return func(i *Issuer) { i.maxDifficulty = d }
}

// WithIssuerBackend selects the puzzle algorithm this issuer signs for.
// Defaults to Hashcash(). Every backend issues the one token format,
// which carries its ID and cost parameters under the HMAC. The issuer's
// difficulty cap is clamped to the backend's DifficultyCap. The paired
// Verifier must be built with the same backend (WithVerifierBackend).
func WithIssuerBackend(b Backend) IssuerOption {
	return func(i *Issuer) { i.backend = b }
}

// WithIssuerAuthCache publishes every issued challenge into c, so a
// Verifier sharing the same cache (WithVerifierAuthCache) authenticates it
// by equality instead of recomputing the HMAC. Only useful when issuer and
// verifier live in one process; core.Framework wires this automatically.
func WithIssuerAuthCache(c *AuthCache) IssuerOption {
	return func(i *Issuer) { i.cache = c }
}

// NewIssuer returns an Issuer that signs challenges with key. The key must
// be at least 16 bytes; the same key must be given to the Verifier.
func NewIssuer(key []byte, opts ...IssuerOption) (*Issuer, error) {
	if len(key) < minKeyLen {
		return nil, fmt.Errorf("%w (got %d)", ErrKeyTooShort, len(key))
	}
	i := &Issuer{
		key:           append([]byte(nil), key...),
		rand:          rand.Reader,
		ttl:           DefaultTTL,
		maxDifficulty: 32,
		backend:       Hashcash(),
	}
	for _, opt := range opts {
		opt(i)
	}
	if i.ttl <= 0 {
		return nil, fmt.Errorf("puzzle: non-positive TTL %v", i.ttl)
	}
	if i.maxDifficulty < MinDifficulty || i.maxDifficulty > MaxDifficulty {
		return nil, fmt.Errorf("%w: issuer cap %d", ErrInvalidDifficulty, i.maxDifficulty)
	}
	// The effective cap is the tighter of the issuer's and the backend's.
	if cap := i.backend.DifficultyCap(); cap < i.maxDifficulty {
		i.maxDifficulty = cap
	}
	i.backendID = i.backend.ID()
	i.space, i.rounds = i.backend.params()
	i.macs = newMACPool(i.key)
	return i, nil
}

// Backend reports the puzzle algorithm this issuer signs for.
func (i *Issuer) Backend() Backend { return i.backend }

// Issue creates a d-difficult challenge bound to the given client
// identity, issued at the wall clock's current time.
func (i *Issuer) Issue(binding string, difficulty int) (Challenge, error) {
	return i.IssueAt(binding, difficulty, time.Now())
}

// IssueAt is Issue with the challenge issued at now, the instant the
// caller read for the request.
func (i *Issuer) IssueAt(binding string, difficulty int, now time.Time) (Challenge, error) {
	if err := validateDifficulty(difficulty); err != nil {
		return Challenge{}, err
	}
	if difficulty > i.maxDifficulty {
		return Challenge{}, fmt.Errorf("%w: %d exceeds issuer cap %d",
			ErrInvalidDifficulty, difficulty, i.maxDifficulty)
	}
	if len(binding) > maxBindingLen {
		return Challenge{}, ErrBindingTooLong
	}
	ch := Challenge{
		Version:    Version2,
		Backend:    i.backendID,
		Space:      i.space,
		Rounds:     i.rounds,
		IssuedAt:   now,
		TTL:        i.ttl,
		Difficulty: difficulty,
		Binding:    binding,
	}
	// The seed is read into pooled scratch (not ch.Seed directly) so the
	// returned challenge does not escape to the heap through the entropy
	// reader's interface call.
	s := i.macs.get()
	if _, err := io.ReadFull(i.rand, s.seed[:]); err != nil {
		i.macs.put(s)
		return Challenge{}, fmt.Errorf("puzzle: read seed entropy: %w", err)
	}
	ch.Seed = s.seed
	ch.Tag = s.tagOf(&ch)
	if i.cache != nil {
		i.cache.store(s.buf, &ch.Tag, &ch.Seed, i.backendID)
	}
	i.macs.put(s)
	return ch, nil
}

// maxIssueChunk bounds how many seeds IssueBatch reads per entropy call
// (1 KiB of scratch), so arbitrarily large batches cannot inflate the
// pooled buffer.
const maxIssueChunk = 64

// IssueBatch issues one challenge per (binding, difficulty) pair into
// dst[i], all issued at now, amortizing the pooled MAC scratch checkout and —
// the dominant saving — the entropy reads: seeds are drawn one
// crypto/rand call per chunk of up to maxIssueChunk challenges instead of
// one per challenge. A negative difficulty is the caller's "no challenge
// here" sentinel (a bypassed slot in a decision batch) and leaves dst[i]
// zero. The whole batch is validated before any entropy is consumed, so an
// error means dst holds no fresh challenges.
func (i *Issuer) IssueBatch(bindings []string, difficulties []int, dst []Challenge, now time.Time) error {
	if len(difficulties) != len(bindings) {
		return fmt.Errorf("puzzle: batch shape mismatch: %d bindings, %d difficulties",
			len(bindings), len(difficulties))
	}
	if len(dst) < len(bindings) {
		return fmt.Errorf("puzzle: batch destination holds %d, need %d", len(dst), len(bindings))
	}
	for k, d := range difficulties {
		if d < 0 {
			continue
		}
		if err := validateDifficulty(d); err != nil {
			return err
		}
		if d > i.maxDifficulty {
			return fmt.Errorf("%w: %d exceeds issuer cap %d", ErrInvalidDifficulty, d, i.maxDifficulty)
		}
		if len(bindings[k]) > maxBindingLen {
			return ErrBindingTooLong
		}
	}
	s := i.macs.get()
	defer i.macs.put(s)
	for start := 0; start < len(bindings); {
		end := min(start+maxIssueChunk, len(bindings))
		n := 0
		for k := start; k < end; k++ {
			if difficulties[k] >= 0 {
				n++
			}
		}
		if n > 0 {
			if cap(s.seeds) < n*SeedSize {
				s.seeds = make([]byte, n*SeedSize)
			}
			buf := s.seeds[:n*SeedSize]
			if _, err := io.ReadFull(i.rand, buf); err != nil {
				return fmt.Errorf("puzzle: read seed entropy: %w", err)
			}
			si := 0
			for k := start; k < end; k++ {
				if difficulties[k] < 0 {
					dst[k] = Challenge{}
					continue
				}
				ch := Challenge{
					Version:    Version2,
					Backend:    i.backendID,
					Space:      i.space,
					Rounds:     i.rounds,
					IssuedAt:   now,
					TTL:        i.ttl,
					Difficulty: difficulties[k],
					Binding:    bindings[k],
				}
				copy(ch.Seed[:], buf[si*SeedSize:(si+1)*SeedSize])
				si++
				ch.Tag = s.tagOf(&ch)
				if i.cache != nil {
					i.cache.store(s.buf, &ch.Tag, &ch.Seed, i.backendID)
				}
				dst[k] = ch
			}
		} else {
			for k := start; k < end; k++ {
				dst[k] = Challenge{}
			}
		}
		start = end
	}
	return nil
}
