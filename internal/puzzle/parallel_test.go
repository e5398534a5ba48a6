package puzzle

// Multi-worker solving: NewSolver(WithSolverWorkers(n)) scans disjoint
// nonce strides and reports attempts summed across its workers.

import (
	"context"
	"errors"
	"testing"
)

func TestParallelSolveFindsValidNonce(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	ps := NewSolver(WithSolverWorkers(4))
	for _, d := range []int{1, 6, 12} {
		ch, err := iss.Issue("client", d)
		if err != nil {
			t.Fatal(err)
		}
		sol, stats, err := ps.Solve(context.Background(), ch)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !ch.Meets(sol.Nonce) {
			t.Fatalf("d=%d: nonce %d does not meet difficulty", d, sol.Nonce)
		}
		if stats.Attempts == 0 {
			t.Fatalf("d=%d: zero attempts reported", d)
		}
		if err := ver.Verify(sol, "client"); err != nil {
			t.Fatalf("d=%d: parallel solution rejected: %v", d, err)
		}
	}
}

func TestParallelSolveAgreesWithSequentialVerification(t *testing.T) {
	// The parallel solver may find a different nonce than the sequential
	// one; both must satisfy the same predicate.
	iss := newTestIssuer(t)
	ch, err := iss.Issue("client", 10)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewSolver(WithSolverWorkers(3))
	par, _, err := ps.Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Meets(seq.Nonce) || !ch.Meets(par.Nonce) {
		t.Fatal("one of the solutions does not meet the difficulty")
	}
}

func TestParallelSolveContextCancellation(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = NewSolver(WithSolverWorkers(2)).Solve(ctx, ch)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestParallelSolveNonceLimit(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(32))
	ch, err := iss.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	// The limit bounds attempts summed across workers, not per worker.
	_, stats, err := NewSolver(WithSolverWorkers(2), WithNonceLimit(2000)).Solve(context.Background(), ch)
	if !errors.Is(err, ErrNonceExhausted) {
		t.Fatalf("err = %v, want ErrNonceExhausted", err)
	}
	if stats.Attempts == 0 || stats.Attempts > 2100 {
		t.Fatalf("attempts = %d, want ≈2000", stats.Attempts)
	}
}
