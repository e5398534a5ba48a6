package puzzle

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func BenchmarkIssue(b *testing.B) {
	iss, err := NewIssuer(testKey)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iss.Issue("203.0.113.9", 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	iss, err := NewIssuer(testKey)
	if err != nil {
		b.Fatal(err)
	}
	ver, err := NewVerifier(testKey) // no replay cache: pure verify cost
	if err != nil {
		b.Fatal(err)
	}
	ch, err := iss.Issue("203.0.113.9", 8)
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ver.Verify(sol, "203.0.113.9"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIssueBalloon(b *testing.B) {
	backend, err := NewBalloon(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	iss, err := NewIssuer(testKey, WithIssuerBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iss.Issue("203.0.113.9", 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBalloon(b *testing.B) {
	backend, err := NewBalloon(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	iss, err := NewIssuer(testKey, WithIssuerBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	ver, err := NewVerifier(testKey, WithVerifierBackend(backend)) // no replay cache: pure verify cost
	if err != nil {
		b.Fatal(err)
	}
	ch, err := iss.Issue("203.0.113.9", 2)
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ver.Verify(sol, "203.0.113.9"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyBalloonReplay resubmits a redeemed balloon token: the
// replay probe rejects it before the balloon evaluation, so it should cost
// microseconds where BenchmarkVerifyBalloon costs hundreds of them.
func BenchmarkVerifyBalloonReplay(b *testing.B) {
	backend, err := NewBalloon(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	iss, err := NewIssuer(testKey, WithIssuerBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	ver, err := NewVerifier(testKey, WithVerifierBackend(backend),
		WithReplayCache(NewReplayCache(1<<16, nil)))
	if err != nil {
		b.Fatal(err)
	}
	ch, err := iss.Issue("203.0.113.9", 2)
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := NewSolver().Solve(context.Background(), ch)
	if err != nil {
		b.Fatal(err)
	}
	if err := ver.Verify(sol, "203.0.113.9"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ver.Verify(sol, "203.0.113.9"); !errors.Is(err, ErrReplayed) {
			b.Fatalf("replay = %v, want ErrReplayed", err)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	iss, err := NewIssuer(testKey)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			solver := NewSolver()
			for i := 0; i < b.N; i++ {
				ch, err := iss.Issue("bench", d)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := solver.Solve(context.Background(), ch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChallengeMarshalText(b *testing.B) {
	iss, err := NewIssuer(testKey)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := iss.Issue("203.0.113.9", 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.MarshalText(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChallengeUnmarshalText(b *testing.B) {
	iss, err := NewIssuer(testKey)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := iss.Issue("203.0.113.9", 12)
	if err != nil {
		b.Fatal(err)
	}
	txt, err := ch.MarshalText()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got Challenge
		if err := got.UnmarshalText(txt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplayCacheRemember(b *testing.B) {
	c := NewReplayCache(1<<16, nil)
	exp := time.Now().Add(time.Hour)
	var s [SeedSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the seed so every insert is fresh.
		s[0], s[1], s[2], s[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		c.Remember(s, exp)
	}
}
