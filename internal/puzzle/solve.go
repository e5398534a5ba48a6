package puzzle

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ctxCheckInterval is how many hash attempts the solver performs between
// context cancellation checks; it trades cancellation latency (microseconds)
// against per-hash overhead.
const ctxCheckInterval = 4096

// balloonCheckInterval is the same for memory-hard searches, counted in
// nonces scanned: any one of them may cost a balloon evaluation of
// thousands of hashes, so the check must come far more often to keep
// cancellation latency comparable. Counting scanned nonces rather than
// evaluations keeps a long run of shell failures cancellable too.
const balloonCheckInterval = 16

// SolveStats describes the work one solve performed, for client-side cost
// accounting.
type SolveStats struct {
	// Attempts is the number of nonce evaluations performed, including
	// the successful one: SHA-256 evaluations for hashcash, balloon
	// evaluations for the memory-hard backend. A balloon attempt costs
	// Backend.AttemptCost hashes, which include the shell hashes spent
	// finding a nonce worth evaluating; those are not counted here.
	Attempts uint64

	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// Solver performs the client-side nonce search. It corresponds to the
// paper's "puzzle solver" module: the received challenge data is treated as
// an immutable prefix, a 32-bit string is appended, and the client mutates
// it on each hash evaluation until the digest has the required zero prefix.
//
// One Solver handles every backend: it dispatches on the challenge's
// backend ID, so a client facing a mixed deployment (hashcash on one
// route, memory-hard on another) needs exactly one solver. With
// WithSolverWorkers the nonce space is searched by multiple goroutines in
// disjoint strides; any discovered nonce verifies identically.
//
// Solver is safe for concurrent use; each Solve call owns its own state.
type Solver struct {
	extended bool
	limit    uint64
	workers  int
}

// SolverOption customizes a Solver.
type SolverOption func(*Solver)

// WithExtendedNonce lets the search continue into a 64-bit nonce space
// after the 32-bit space (the paper's default) is exhausted. It exists for
// difficulties above ~26 where 32-bit exhaustion stops being negligible.
func WithExtendedNonce() SolverOption {
	return func(s *Solver) { s.extended = true }
}

// WithNonceLimit caps the number of attempts (as SolveStats counts them:
// balloon evaluations on the memory-hard backend) before the solver gives
// up with ErrNonceExhausted. Zero (the default) means the full nonce space.
// Rational attackers use this to bound the work they are willing to spend
// on one request. With multiple workers the limit bounds total attempts across all of them.
func WithNonceLimit(limit uint64) SolverOption {
	return func(s *Solver) { s.limit = limit }
}

// WithSolverWorkers sets the number of goroutines searching the nonce
// space (default 1, a sequential scan). Workers scan disjoint strides, so
// the speedup is near-linear where hashing dominates; values below 1 are
// treated as 1 by design, not rejected: NewSolver has no error to return.
func WithSolverWorkers(n int) SolverOption {
	return func(s *Solver) { s.workers = n }
}

// NewSolver returns a Solver with the given options applied.
func NewSolver(opts ...SolverOption) *Solver {
	s := &Solver{workers: 1}
	for _, opt := range opts {
		opt(s)
	}
	if s.workers < 1 {
		s.workers = 1
	}
	return s
}

// Solve searches for a nonce meeting the challenge difficulty, dispatching
// on the challenge's backend. It returns ErrNonceExhausted if the nonce
// space (or the configured limit) runs out, or ctx.Err() if the context
// is cancelled mid-search. The returned stats are valid in all
// cases and report the work performed up to the return.
func (s *Solver) Solve(ctx context.Context, ch Challenge) (Solution, SolveStats, error) {
	balloon := ch.Backend == BackendBalloon
	if s.workers > 1 {
		return s.solveStrided(ctx, ch, balloon)
	}
	if balloon {
		return s.solveBalloon(ctx, ch)
	}
	return s.solveHashcash(ctx, ch)
}

// solveHashcash is the sequential CPU-bound search — the paper's solver,
// byte for byte.
func (s *Solver) solveHashcash(ctx context.Context, ch Challenge) (Solution, SolveStats, error) {
	start := time.Now()
	stats := SolveStats{}
	prefix := ch.canonical()

	// 32-bit phase: 4-byte big-endian nonce, exactly the paper's format.
	buf := make([]byte, len(prefix)+4)
	copy(buf, prefix)
	for nonce := uint64(0); nonce <= math.MaxUint32; nonce++ {
		if stats.Attempts%ctxCheckInterval == 0 && ctx.Err() != nil {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ctx.Err()
		}
		if s.limit > 0 && stats.Attempts >= s.limit {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ErrNonceExhausted
		}
		binary.BigEndian.PutUint32(buf[len(prefix):], uint32(nonce))
		digest := sha256.Sum256(buf)
		stats.Attempts++
		if CountLeadingZeroBits(digest[:]) >= ch.Difficulty {
			stats.Elapsed = time.Since(start)
			return Solution{Challenge: ch, Nonce: nonce}, stats, nil
		}
	}
	if !s.extended {
		stats.Elapsed = time.Since(start)
		return Solution{}, stats, ErrNonceExhausted
	}

	// Extended phase: 8-byte nonces strictly above MaxUint32.
	buf = make([]byte, len(prefix)+8)
	copy(buf, prefix)
	for nonce := uint64(math.MaxUint32) + 1; nonce != 0; nonce++ {
		if stats.Attempts%ctxCheckInterval == 0 && ctx.Err() != nil {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ctx.Err()
		}
		if s.limit > 0 && stats.Attempts >= s.limit {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ErrNonceExhausted
		}
		binary.BigEndian.PutUint64(buf[len(prefix):], nonce)
		digest := sha256.Sum256(buf)
		stats.Attempts++
		if CountLeadingZeroBits(digest[:]) >= ch.Difficulty {
			stats.Elapsed = time.Since(start)
			return Solution{Challenge: ch, Nonce: nonce}, stats, nil
		}
	}
	stats.Elapsed = time.Since(start)
	return Solution{}, stats, ErrNonceExhausted
}

// solveBalloon is the sequential memory-hard search: the same nonce walk,
// where a nonce that clears the SHA-256 shell pays one balloon
// evaluation.
func (s *Solver) solveBalloon(ctx context.Context, ch Challenge) (Solution, SolveStats, error) {
	start := time.Now()
	stats := SolveStats{}
	prefix := ch.canonical()
	shell := balloonShellBits(ch.Space, ch.Rounds)
	buf := make([]byte, len(prefix)+4)
	copy(buf, prefix)
	for nonce := uint64(0); nonce <= math.MaxUint32; nonce++ {
		if nonce%balloonCheckInterval == 0 && ctx.Err() != nil {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ctx.Err()
		}
		binary.BigEndian.PutUint32(buf[len(prefix):], uint32(nonce))
		if !passesShell(buf, shell) {
			continue
		}
		digest := balloonDigest(buf, ch.Space, ch.Rounds)
		stats.Attempts++
		if CountLeadingZeroBits(digest[:]) >= ch.Difficulty {
			stats.Elapsed = time.Since(start)
			return Solution{Challenge: ch, Nonce: nonce}, stats, nil
		}
		if s.limit > 0 && stats.Attempts >= s.limit {
			stats.Elapsed = time.Since(start)
			return Solution{}, stats, ErrNonceExhausted
		}
	}
	stats.Elapsed = time.Since(start)
	return Solution{}, stats, ErrNonceExhausted
}

// solveStrided searches the 32-bit nonce space with s.workers goroutines,
// worker w trying nonces w, w+n, w+2n, … — any discovered nonce verifies
// identically to a sequential find; only the wall-clock time changes.
// Stats aggregate attempts across workers, so they measure total energy,
// not wall time.
func (s *Solver) solveStrided(ctx context.Context, ch Challenge, balloon bool) (Solution, SolveStats, error) {
	start := time.Now()
	prefix := ch.canonical()
	var (
		stop     atomic.Bool
		attempts atomic.Uint64
		winner   atomic.Int64
	)
	winner.Store(-1)

	checkEvery, shell := uint64(ctxCheckInterval), 0
	if balloon {
		checkEvery, shell = balloonCheckInterval, balloonShellBits(ch.Space, ch.Rounds)
	}
	perWorkerBudget := uint64(math.MaxUint32)
	if s.limit > 0 {
		perWorkerBudget = s.limit / uint64(s.workers)
		if perWorkerBudget == 0 {
			perWorkerBudget = 1
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(first uint64) {
			defer wg.Done()
			buf := make([]byte, len(prefix)+4)
			copy(buf, prefix)
			var scanned, done uint64
			for nonce := first; nonce <= math.MaxUint32; nonce += uint64(s.workers) {
				if scanned%checkEvery == 0 && (stop.Load() || ctx.Err() != nil) {
					attempts.Add(done)
					return
				}
				scanned++
				binary.BigEndian.PutUint32(buf[len(prefix):], uint32(nonce))
				var digest [sha256.Size]byte
				if !balloon {
					digest = sha256.Sum256(buf)
				} else if passesShell(buf, shell) {
					digest = balloonDigest(buf, ch.Space, ch.Rounds)
				} else {
					continue
				}
				done++
				if CountLeadingZeroBits(digest[:]) >= ch.Difficulty {
					// First writer wins; others keep their partial counts.
					if winner.CompareAndSwap(-1, int64(nonce)) {
						stop.Store(true)
					}
					attempts.Add(done)
					return
				}
				if done >= perWorkerBudget {
					attempts.Add(done)
					return
				}
			}
			attempts.Add(done)
		}(uint64(w))
	}
	wg.Wait()

	stats := SolveStats{Attempts: attempts.Load(), Elapsed: time.Since(start)}
	if err := ctx.Err(); err != nil && winner.Load() < 0 {
		return Solution{}, stats, err
	}
	if n := winner.Load(); n >= 0 {
		return Solution{Challenge: ch, Nonce: uint64(n)}, stats, nil
	}
	return Solution{}, stats, ErrNonceExhausted
}
