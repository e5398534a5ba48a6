package puzzle

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BackendID identifies a puzzle algorithm on the wire. Every token
// carries it under the HMAC; the zero value is never a valid ID.
type BackendID uint8

const (
	// BackendHashcash is the paper's CPU-bound partial-preimage backend.
	BackendHashcash BackendID = 1

	// BackendBalloon is the self-contained memory-hard backend.
	BackendBalloon BackendID = 2
)

// String names the backend for diagnostics.
func (id BackendID) String() string {
	switch id {
	case BackendHashcash:
		return "hashcash"
	case BackendBalloon:
		return "balloon"
	}
	return fmt.Sprintf("backend(%d)", uint8(id))
}

// ErrUnknownBackend reports a backend name or ID this build does not
// implement.
var ErrUnknownBackend = errors.New("puzzle: unknown puzzle backend")

// Backend is one puzzle algorithm: an issuance/verification cost-model
// contract plus the wire identity that keeps solutions from one backend
// from ever redeeming under another. The two production implementations
// are Hashcash (CPU-bound) and Balloon (memory-hard). Both issue the one
// token format, whose backend byte sits under the HMAC.
//
// The interface is sealed: implementations live in this package, so the
// issuer and verifier can rely on the wire invariant (a challenge never
// verifies under another backend than the one it was issued for —
// ErrBadVersion, fail-closed) without trusting third-party code.
type Backend interface {
	// ID is the wire identity every token carries.
	ID() BackendID

	// Name is the spec-grammar name ("hashcash", "balloon").
	Name() string

	// Spec renders the backend's full configuration in the deployment
	// spec grammar (`hashcash(bits=…)`, `balloon(space=…, time=…)`).
	// Two backends are interchangeable iff their Specs are equal.
	Spec() string

	// DifficultyCap is the largest difficulty this backend can
	// meaningfully price; issuance clamps to min(cap, issuer cap).
	DifficultyCap() int

	// AttemptCost is the calibration hint: expected hash evaluations
	// per solver attempt (1 for hashcash; for balloon, space·(1+4·time)
	// per evaluation plus the 2^S shell hashes that find the nonce to
	// evaluate). A d-difficult challenge costs ~2^d·AttemptCost hashes.
	AttemptCost() float64

	// ShellCost is the part of AttemptCost spent on plain SHA-256: the
	// balloon shell's 2^S hashes per evaluation, 0 for hashcash, which
	// has no shell. Hardware that discounts hashcash discounts these
	// hashes too, so cost models price them apart from the rest.
	ShellCost() float64

	// MemoryPerAttempt is the working-set bytes one attempt touches —
	// the quantity GPU/ASIC solvers cannot discount.
	MemoryPerAttempt() int

	// params exposes the wire cost parameters to the issuer; it also
	// seals the interface against outside implementations.
	params() (space, rounds uint32)
}

// hashcashBackend is the paper's SHA-256 partial-preimage puzzle.
type hashcashBackend struct {
	bits int
}

// defaultHashcash backs Hashcash() so the zero-configuration path
// allocates nothing.
var defaultHashcash Backend = hashcashBackend{bits: MaxDifficulty}

// Hashcash returns the default CPU-bound backend: the paper's SHA-256
// partial-preimage puzzle at the full protocol difficulty range. It is
// what every Issuer and Verifier uses unless configured otherwise.
func Hashcash() Backend { return defaultHashcash }

// NewHashcash returns a hashcash backend whose difficulty cap is bits
// (the `hashcash(bits=…)` spec form).
func NewHashcash(bits int) (Backend, error) {
	if bits < MinDifficulty || bits > MaxDifficulty {
		return nil, fmt.Errorf("%w: hashcash bits %d", ErrInvalidDifficulty, bits)
	}
	return hashcashBackend{bits: bits}, nil
}

func (hashcashBackend) ID() BackendID        { return BackendHashcash }
func (hashcashBackend) Name() string         { return "hashcash" }
func (b hashcashBackend) Spec() string       { return fmt.Sprintf("hashcash(bits=%d)", b.bits) }
func (b hashcashBackend) DifficultyCap() int { return b.bits }
func (hashcashBackend) AttemptCost() float64 { return 1 }
func (hashcashBackend) ShellCost() float64   { return 0 }
func (hashcashBackend) MemoryPerAttempt() int {
	return sha256BlockBytes // one compression-function state
}
func (hashcashBackend) params() (uint32, uint32) { return 0, 0 }

// sha256BlockBytes is SHA-256's working set: one 64-byte message block.
const sha256BlockBytes = 64

// balloonBackend is the memory-hard puzzle; see balloon.go for the
// function itself.
type balloonBackend struct {
	space  uint32
	rounds uint32
}

// NewBalloon returns a memory-hard backend with the given space (buffer
// blocks) and time (mixing rounds) parameters — the
// `balloon(space=…, time=…)` spec form. Zero picks the package default
// for that parameter.
func NewBalloon(space, rounds int) (Backend, error) {
	if space == 0 {
		space = DefaultBalloonSpace
	}
	if rounds == 0 {
		rounds = DefaultBalloonRounds
	}
	if space < minBalloonSpace || space > maxBalloonSpace {
		return nil, fmt.Errorf("puzzle: balloon space %d not in [%d, %d]",
			space, minBalloonSpace, maxBalloonSpace)
	}
	if rounds < minBalloonRounds || rounds > maxBalloonRounds {
		return nil, fmt.Errorf("puzzle: balloon time %d not in [%d, %d]",
			rounds, minBalloonRounds, maxBalloonRounds)
	}
	return balloonBackend{space: uint32(space), rounds: uint32(rounds)}, nil
}

func (balloonBackend) ID() BackendID { return BackendBalloon }
func (balloonBackend) Name() string  { return "balloon" }
func (b balloonBackend) Spec() string {
	return fmt.Sprintf("balloon(space=%d, time=%d)", b.space, b.rounds)
}

// DifficultyCap: each balloon attempt already costs space·(1+4·time)
// hashes, so the leading-zero dial tops out far below hashcash's.
func (balloonBackend) DifficultyCap() int { return 32 }

func (b balloonBackend) AttemptCost() float64 {
	return float64(balloonCost(b.space, b.rounds)) + b.ShellCost()
}
func (b balloonBackend) ShellCost() float64 {
	return math.Exp2(float64(balloonShellBits(b.space, b.rounds)))
}
func (b balloonBackend) MemoryPerAttempt() int    { return int(b.space) * balloonBlockSize }
func (b balloonBackend) params() (uint32, uint32) { return b.space, b.rounds }

// ParseBackendSpec resolves a backend from its deployment-spec form:
// `hashcash`, `hashcash(bits=…)`, or `balloon(space=…, time=…)`. The
// empty string means the default hashcash backend, so a pipeline with no
// `puzzle` line parses to the same backend as an explicit `puzzle
// hashcash`. Unknown names and parameters are errors, never silently
// ignored — the same contract as every other component spec.
func ParseBackendSpec(spec string) (Backend, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return Hashcash(), nil
	}
	name, params, err := splitBackendSpec(s)
	if err != nil {
		return nil, err
	}
	switch name {
	case "hashcash":
		bits := MaxDifficulty
		for _, p := range params {
			if p.key != "bits" {
				return nil, fmt.Errorf("puzzle: hashcash has no parameter %q", p.key)
			}
			bits = p.val
		}
		return NewHashcash(bits)
	case "balloon":
		space, rounds := DefaultBalloonSpace, DefaultBalloonRounds
		for _, p := range params {
			switch p.key {
			case "space":
				space = p.val
			case "time":
				rounds = p.val
			default:
				return nil, fmt.Errorf("puzzle: balloon has no parameter %q", p.key)
			}
		}
		return NewBalloon(space, rounds)
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownBackend, name)
}

// backendParam is one parsed k=v pair, kept ordered so error messages
// are deterministic.
type backendParam struct {
	key string
	val int
}

// splitBackendSpec parses `name` or `name(k=v, k2=v2)` with integer
// values — the component-spec grammar restricted to what backends need.
func splitBackendSpec(s string) (string, []backendParam, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("puzzle: backend spec %q missing closing parenthesis", s)
	}
	name := strings.TrimSpace(s[:open])
	body := strings.TrimSpace(s[open+1 : len(s)-1])
	if body == "" {
		return name, nil, nil
	}
	var params []backendParam
	for _, part := range strings.Split(body, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return "", nil, fmt.Errorf("puzzle: backend parameter %q is not k=v", strings.TrimSpace(part))
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return "", nil, fmt.Errorf("puzzle: backend parameter %q: %w", strings.TrimSpace(k), err)
		}
		params = append(params, backendParam{key: strings.TrimSpace(k), val: n})
	}
	return name, params, nil
}
