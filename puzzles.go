package aipow

import (
	"aipow/internal/puzzle"
)

// Challenge is one issued PoW puzzle: seed, timestamp, TTL, difficulty,
// client binding, backend parameters (Version2), and HMAC tag. It
// round-trips through MarshalText as a header-safe token.
type Challenge = puzzle.Challenge

// Solution pairs a challenge with the nonce that solves it.
type Solution = puzzle.Solution

// Backend is one proof-of-work puzzle function: it pins the wire format
// its challenges travel in, the meaning of a difficulty level, and the
// cost model (work and memory per attempt) that lets policies and
// simulations price attackers. Implementations are provided by this
// package — Hashcash, NewHashcash, NewBalloon, ParseBackendSpec — and the
// interface is sealed; it cannot be implemented outside.
type Backend = puzzle.Backend

// BackendID is a backend's stable one-byte wire identifier.
type BackendID = puzzle.BackendID

// Wire identifiers of the built-in backends.
const (
	// BackendHashcash is the CPU-bound SHA-256 leading-zeros puzzle
	// (the paper's construction, Version1 wire format).
	BackendHashcash = puzzle.BackendHashcash

	// BackendBalloon is the memory-hard balloon-hashing puzzle
	// (Version2 wire format).
	BackendBalloon = puzzle.BackendBalloon
)

// Challenge wire-format versions.
const (
	// Version1 is the original hashcash-only token format. Tokens
	// issued before backends existed verify unchanged.
	Version1 = puzzle.Version1

	// Version2 is the backend-carrying token format: the backend ID
	// and its cost parameters ride under the HMAC, so a v2 challenge
	// rewritten as v1 (or vice versa) fails authentication.
	Version2 = puzzle.Version2
)

// Hashcash returns the default CPU-bound backend (SHA-256 leading zeros,
// Version1 wire format) — what every Framework and Issuer uses unless
// WithPuzzleBackend says otherwise.
func Hashcash() Backend { return puzzle.Hashcash() }

// NewHashcash returns a hashcash backend whose difficulty cap is bits.
func NewHashcash(bits int) (Backend, error) { return puzzle.NewHashcash(bits) }

// NewBalloon returns a memory-hard balloon-hashing backend: each attempt
// fills space 32-byte blocks and mixes them for rounds passes, so an
// attempt costs real memory bandwidth that parallel hardware discounts
// far less than it discounts raw SHA-256. Zero space or rounds select
// the defaults (256 blocks, 2 rounds).
func NewBalloon(space, rounds int) (Backend, error) { return puzzle.NewBalloon(space, rounds) }

// ParseBackendSpec parses a backend spec string — "hashcash(bits=22)",
// "balloon(space=256, time=2)", or bare "hashcash"/"balloon" for the
// defaults. The empty string is the default hashcash backend. This is the
// same grammar the control plane's per-pipeline "puzzle" line uses.
func ParseBackendSpec(spec string) (Backend, error) { return puzzle.ParseBackendSpec(spec) }

// Solver performs the client-side search for any backend: it reads the
// challenge's version and backend ID and runs the matching attempt loop,
// so one solver handles v1 hashcash and v2 balloon tokens alike.
type Solver = puzzle.Solver

// SolverOption configures NewSolver.
type SolverOption = puzzle.SolverOption

// SolveStats reports the work one solve performed.
type SolveStats = puzzle.SolveStats

// NewSolver returns a puzzle solver. Use WithNonceLimit to bound the work
// a client is willing to spend, WithExtendedNonce to search beyond 32
// bits, WithSolverWorkers to parallelize the search.
func NewSolver(opts ...SolverOption) *Solver { return puzzle.NewSolver(opts...) }

// WithNonceLimit caps solve attempts before giving up.
func WithNonceLimit(limit uint64) SolverOption { return puzzle.WithNonceLimit(limit) }

// WithExtendedNonce allows 64-bit nonces for difficulties above ~26.
func WithExtendedNonce() SolverOption { return puzzle.WithExtendedNonce() }

// WithSolverWorkers splits the nonce search across n goroutines for a
// near-linear wall-clock speedup at high difficulties. n < 1 is treated
// as 1 by design, not rejected: NewSolver has no error to return.
func WithSolverWorkers(n int) SolverOption { return puzzle.WithSolverWorkers(n) }

// Standalone issuance/verification, for deployments that split the issuer
// and verifier across processes. Most callers should use Framework, which
// wires these internally.
type (
	// Issuer generates authenticated challenges.
	Issuer = puzzle.Issuer

	// Verifier checks solutions.
	Verifier = puzzle.Verifier

	// IssuerOption configures NewIssuer.
	IssuerOption = puzzle.IssuerOption

	// VerifierOption configures NewVerifier.
	VerifierOption = puzzle.VerifierOption
)

// NewIssuer returns a standalone challenge issuer.
func NewIssuer(key []byte, opts ...IssuerOption) (*Issuer, error) {
	return puzzle.NewIssuer(key, opts...)
}

// NewVerifier returns a standalone solution verifier.
func NewVerifier(key []byte, opts ...VerifierOption) (*Verifier, error) {
	return puzzle.NewVerifier(key, opts...)
}

// WithIssuerBackend makes a standalone issuer issue b's challenges
// (default hashcash).
func WithIssuerBackend(b Backend) IssuerOption { return puzzle.WithIssuerBackend(b) }

// WithVerifierBackend makes a standalone verifier accept only b's
// challenges (default hashcash). A verifier rejects every other backend's
// tokens with ErrBadVersion — solutions never redeem across backends.
func WithVerifierBackend(b Backend) VerifierOption { return puzzle.WithVerifierBackend(b) }

// Verification failure sentinels, for errors.Is branching.
var (
	// ErrVerify is wrapped by every verification failure.
	ErrVerify = puzzle.ErrVerify

	// ErrExpired reports a solution past its challenge TTL.
	ErrExpired = puzzle.ErrExpired

	// ErrReplayed reports a challenge redeemed twice.
	ErrReplayed = puzzle.ErrReplayed

	// ErrBindingMismatch reports a solution presented by the wrong client.
	ErrBindingMismatch = puzzle.ErrBindingMismatch

	// ErrWrongSolution reports a nonce that does not meet the difficulty.
	ErrWrongSolution = puzzle.ErrWrongSolution

	// ErrNonceExhausted reports an exhausted solver search budget.
	ErrNonceExhausted = puzzle.ErrNonceExhausted

	// ErrBadVersion reports a token whose wire version or backend does
	// not match the verifier — including downgrade attempts (a v2
	// balloon challenge re-encoded as v1 hashcash, or vice versa).
	ErrBadVersion = puzzle.ErrBadVersion

	// ErrUnknownBackend reports a backend name or ID this build does
	// not provide (ParseBackendSpec, token decoding).
	ErrUnknownBackend = puzzle.ErrUnknownBackend
)
