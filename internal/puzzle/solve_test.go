package puzzle

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

// solveOrDie solves ch with a default solver or fails the test.
func solveOrDie(t *testing.T, ch Challenge) Solution {
	t.Helper()
	sol, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestSolveFindsValidNonce(t *testing.T) {
	iss := newTestIssuer(t)
	for _, d := range []int{1, 4, 8, 12} {
		ch, err := iss.Issue("client", d)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := NewSolver().Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("Solve(d=%d): %v", d, err)
		}
		if !ch.Meets(sol.Nonce) {
			t.Fatalf("d=%d: returned nonce %d does not meet difficulty", d, sol.Nonce)
		}
		if stats.Attempts == 0 {
			t.Fatalf("d=%d: zero attempts reported", d)
		}
		if stats.Attempts != sol.Nonce+1 {
			t.Fatalf("d=%d: attempts %d != nonce+1 %d (sequential search)", d, stats.Attempts, sol.Nonce+1)
		}
	}
}

func TestSolveRespectsContextCancellation(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 32) // ~4e9 expected attempts: never finishes here
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := NewSolver().Solve(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Attempts > ctxCheckInterval {
		t.Fatalf("solver did %d attempts after cancellation", stats.Attempts)
	}
}

func TestSolveNonceLimit(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := NewSolver(WithNonceLimit(1000)).Solve(context.Background(), ch)
	if !errors.Is(err, ErrNonceExhausted) {
		t.Fatalf("err = %v, want ErrNonceExhausted", err)
	}
	if stats.Attempts != 1000 {
		t.Fatalf("attempts = %d, want exactly 1000", stats.Attempts)
	}
}

func TestSolveNonceLimitStillSolvesEasy(t *testing.T) {
	iss := newTestIssuer(t)
	ch, err := iss.Issue("client", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := NewSolver(WithNonceLimit(1<<16)).Solve(context.Background(), ch)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !ch.Meets(sol.Nonce) {
		t.Fatal("solution does not meet difficulty")
	}
}

// A balloon solve counts balloon evaluations: one per nonce that clears
// the shell, up to and including the solution. Shell hashes spent on the
// nonces in between are not attempts.
func TestBalloonSolveCountsEvaluations(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerBackend(testBalloon(t)))
	for _, d := range []int{1, 4, 8} {
		ch, err := iss.Issue("client", d)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := NewSolver().Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("Solve(d=%d): %v", d, err)
		}
		if !refMeets(ch, sol.Nonce) {
			t.Fatalf("d=%d: nonce %d fails the reference predicate", d, sol.Nonce)
		}
		var want uint64
		for n := uint64(0); n <= sol.Nonce; n++ {
			if refPassesShell(ch, n) {
				want++
			}
		}
		if stats.Attempts != want {
			t.Fatalf("d=%d: attempts %d, want %d shell-passing nonces up to %d",
				d, stats.Attempts, want, sol.Nonce)
		}
	}
}

// WithNonceLimit bounds balloon evaluations, not nonces scanned, in the
// sequential and the strided solver alike.
func TestBalloonNonceLimitBoundsEvaluations(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerBackend(testBalloon(t)), WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		_, stats, err := NewSolver(WithSolverWorkers(workers), WithNonceLimit(100)).Solve(context.Background(), ch)
		if !errors.Is(err, ErrNonceExhausted) {
			t.Fatalf("workers=%d: err = %v, want ErrNonceExhausted", workers, err)
		}
		if stats.Attempts != 100 {
			t.Fatalf("workers=%d: attempts = %d, want 100 balloon evaluations", workers, stats.Attempts)
		}
	}
}

// A solve whose shell scan runs long still honours cancellation. Under
// the largest accepted parameters (S = 21), the pinned challenge's first
// shell-passing nonce is 10 121 675: a solver that checked its context
// only around balloon evaluations would scan for seconds, then evaluate
// 16.8 million hashes, before noticing the deadline.
func TestBalloonSolveCancelsDuringShellScan(t *testing.T) {
	b, err := NewBalloon(maxBalloonSpace, maxBalloonRounds)
	if err != nil {
		t.Fatal(err)
	}
	ch := pinnedIssue(t, b)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, stats, err := NewSolver(WithSolverWorkers(workers)).Solve(ctx, ch)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if stats.Attempts != 0 {
			t.Fatalf("workers=%d: %d balloon evaluations, want 0 before the first shell pass",
				workers, stats.Attempts)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
	}
}

// Property: issue → solve → verify round-trips cleanly for random small
// difficulties and bindings.
func TestSolveVerifyRoundTripProperty(t *testing.T) {
	iss := newTestIssuer(t)
	ver, err := NewVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver()
	rng := rand.New(rand.NewPCG(11, 13))
	f := func(bindingSeed uint16) bool {
		d := 1 + int(rng.Uint32()%8)
		binding := "ip-" + string(rune('a'+bindingSeed%26))
		ch, err := iss.Issue(binding, d)
		if err != nil {
			return false
		}
		sol, _, err := solver.Solve(context.Background(), ch)
		if err != nil {
			return false
		}
		return ver.Verify(sol, binding) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
