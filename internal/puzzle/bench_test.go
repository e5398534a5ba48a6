package puzzle

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
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

// BenchmarkReplayCacheRemember claims fresh seeds on a full cache, as a
// verifier at capacity does: each claim sweeps, evicts the soonest seed
// and inserts. "jittered" claims expire on a 100 µs step plus up to 10 ms
// of jitter, as tokens issued in order but solved in varying times do;
// "reverse" claims each expire before every earlier one, the worst case
// for the expiry order. The clock stays before every expiry, so capacity
// alone evicts.
func BenchmarkReplayCacheRemember(b *testing.B) {
	const capacity = 1 << 16
	start := time.Unix(1_700_000_000, 0)
	rng := rand.New(rand.NewPCG(1, 2))
	jitter := make([]time.Duration, 4096)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Int64N(int64(10 * time.Millisecond)))
	}
	const step = 100 * time.Microsecond
	for _, bc := range []struct {
		name    string
		expires func(i int) time.Time
	}{
		{"jittered", func(i int) time.Time { return start.Add(time.Duration(i)*step + jitter[i%len(jitter)]) }},
		{"reverse", func(i int) time.Time { return start.Add(-time.Duration(i) * step) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clock := start.Add(-1000 * time.Hour)
			c := NewReplayCache(capacity, func() time.Time { return clock })
			var s [SeedSize]byte
			claim := func(i int) {
				binary.LittleEndian.PutUint64(s[:], uint64(i))
				if !c.Remember(s, bc.expires(i)) {
					b.Fatalf("claim %d: fresh seed reported as replay", i)
				}
			}
			for i := 0; i < capacity; i++ {
				claim(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := capacity; i < capacity+b.N; i++ {
				claim(i)
			}
		})
	}
}
