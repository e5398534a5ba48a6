package puzzle

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestVerifier(t *testing.T, opts ...VerifierOption) *Verifier {
	t.Helper()
	v, err := NewVerifier(testKey, opts...)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	return v
}

func TestNewVerifierRejectsShortKey(t *testing.T) {
	if _, err := NewVerifier([]byte("tiny")); !errors.Is(err, ErrKeyTooShort) {
		t.Fatalf("err = %v, want ErrKeyTooShort", err)
	}
}

func TestNewVerifierRejectsNegativeSkew(t *testing.T) {
	if _, err := NewVerifier(testKey, WithClockSkew(-time.Second)); err == nil {
		t.Fatal("negative skew accepted")
	}
}

func TestVerifyAcceptsValidSolution(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	ch, err := iss.Issue("192.0.2.1", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	if err := ver.Verify(sol, "192.0.2.1"); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Empty binding skips the binding check.
	if err := ver.Verify(sol, ""); err != nil {
		t.Fatalf("Verify with empty binding: %v", err)
	}
}

func TestVerifyRejectsTamperedFields(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	ch, err := iss.Issue("192.0.2.1", 4)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)

	tests := []struct {
		name   string
		mutate func(*Solution)
		want   error
	}{
		{"difficulty_lowered", func(s *Solution) { s.Challenge.Difficulty = 1 }, ErrBadTag},
		{"ttl_extended", func(s *Solution) { s.Challenge.TTL *= 10 }, ErrBadTag},
		{"binding_swapped", func(s *Solution) { s.Challenge.Binding = "6.6.6.6" }, ErrBadTag},
		{"seed_flipped", func(s *Solution) { s.Challenge.Seed[0] ^= 1 }, ErrBadTag},
		{"issued_shifted", func(s *Solution) { s.Challenge.IssuedAt = s.Challenge.IssuedAt.Add(time.Second) }, ErrBadTag},
		{"tag_flipped", func(s *Solution) { s.Challenge.Tag[0] ^= 1 }, ErrBadTag},
		{"bad_version", func(s *Solution) { s.Challenge.Version = 9 }, ErrBadVersion},
		{"difficulty_out_of_range", func(s *Solution) { s.Challenge.Difficulty = 0 }, ErrInvalidDifficulty},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := sol
			tt.mutate(&mutated)
			err := ver.Verify(mutated, "192.0.2.1")
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
			if !errors.Is(err, ErrVerify) {
				t.Fatalf("err = %v does not wrap ErrVerify", err)
			}
		})
	}
}

func TestVerifyRejectsWrongPresenter(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	ch, err := iss.Issue("192.0.2.1", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	if err := ver.Verify(sol, "203.0.113.5"); !errors.Is(err, ErrBindingMismatch) {
		t.Fatalf("err = %v, want ErrBindingMismatch", err)
	}
}

func TestVerifyRejectsWrongNonce(t *testing.T) {
	iss := newTestIssuer(t)
	ver := newTestVerifier(t)
	ch, err := iss.Issue("c", 12)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	bad := sol
	bad.Nonce++ // almost surely wrong at d=12
	if ch.Meets(bad.Nonce) {
		t.Skip("adjacent nonce happens to solve; astronomically rare")
	}
	if err := ver.Verify(bad, "c"); !errors.Is(err, ErrWrongSolution) {
		t.Fatalf("err = %v, want ErrWrongSolution", err)
	}
}

func TestVerifyExpiry(t *testing.T) {
	issuedAt := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	iss := newTestIssuer(t, WithIssuerNow(fixedNow(issuedAt)), WithTTL(time.Minute))
	ch, err := iss.Issue("c", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)

	tests := []struct {
		name string
		at   time.Time
		want error
	}{
		{"fresh", issuedAt.Add(time.Second), nil},
		{"at_ttl_edge_within_skew", issuedAt.Add(time.Minute + time.Second), nil},
		{"expired", issuedAt.Add(time.Minute + 3*time.Second), ErrExpired},
		{"future_challenge", issuedAt.Add(-5 * time.Second), ErrNotYetValid},
		{"future_within_skew", issuedAt.Add(-time.Second), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ver := newTestVerifier(t, WithVerifierNow(fixedNow(tt.at)), WithClockSkew(2*time.Second))
			err := ver.Verify(sol, "c")
			if tt.want == nil && err != nil {
				t.Fatalf("Verify = %v, want nil", err)
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("Verify = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestVerifyReplay(t *testing.T) {
	iss := newTestIssuer(t)
	cache := NewReplayCache(128, nil)
	ver := newTestVerifier(t, WithReplayCache(cache))
	ch, err := iss.Issue("c", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	if err := ver.Verify(sol, "c"); err != nil {
		t.Fatalf("first redemption: %v", err)
	}
	if err := ver.Verify(sol, "c"); !errors.Is(err, ErrReplayed) {
		t.Fatalf("second redemption = %v, want ErrReplayed", err)
	}
}

func TestVerifyFailedAttemptDoesNotBurnSeed(t *testing.T) {
	iss := newTestIssuer(t)
	cache := NewReplayCache(128, nil)
	ver := newTestVerifier(t, WithReplayCache(cache))
	ch, err := iss.Issue("c", 10)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	bad := sol
	bad.Nonce = sol.Nonce + 1
	if ch.Meets(bad.Nonce) {
		t.Skip("adjacent nonce happens to solve")
	}
	if err := ver.Verify(bad, "c"); err == nil {
		t.Fatal("bad nonce accepted")
	}
	if err := ver.Verify(sol, "c"); err != nil {
		t.Fatalf("correct solution rejected after failed attempt: %v", err)
	}
}

// fakeTags is an exact, concurrency-safe TagExchange that counts
// publications.
type fakeTags struct {
	mu        sync.Mutex
	seen      map[[TagSize]byte]bool
	published int
}

func newFakeTags() *fakeTags { return &fakeTags{seen: make(map[[TagSize]byte]bool)} }

func (f *fakeTags) SeenTag(tag [TagSize]byte) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen[tag]
}

func (f *fakeTags) RedeemedTag(tag [TagSize]byte, _ time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen[tag] = true
	f.published++
}

// forEachBackend runs fn under hashcash and under the production-sized
// balloon backend, whose work check is the expensive one.
func forEachBackend(t *testing.T, fn func(t *testing.T, b Backend)) {
	balloon, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{Hashcash(), balloon} {
		t.Run(b.Name(), func(t *testing.T) { fn(t, b) })
	}
}

// issueSolved issues a 2-difficult challenge bound to binding and solves it.
func issueSolved(t *testing.T, iss *Issuer, binding string) Solution {
	t.Helper()
	ch, err := iss.Issue(binding, 2)
	if err != nil {
		t.Fatal(err)
	}
	return solveOrDie(t, ch)
}

// withWrongNonce returns sol with a nonce that fails the SHA-256 half of
// its challenge's work check (for balloon, the shell), so the verifier
// rejects it before the claim.
func withWrongNonce(sol Solution) Solution {
	ch := sol.Challenge
	passes := ch.Meets
	if ch.Backend == BackendBalloon {
		passes = func(n uint64) bool { return refPassesShell(ch, n) }
	}
	for sol.Nonce++; passes(sol.Nonce); sol.Nonce++ {
	}
	return sol
}

// withShellOnlyNonce returns a balloon sol with a nonce that clears the
// shell but misses the target: only the balloon evaluation rejects it.
func withShellOnlyNonce(sol Solution) Solution {
	sol.Nonce++
	for !refPassesShell(sol.Challenge, sol.Nonce) || refMeets(sol.Challenge, sol.Nonce) {
		sol.Nonce++
	}
	return sol
}

// A redeemed token is rejected as a replay whatever its nonce: the probe
// runs before the work check, so a replay never pays for an evaluation.
func TestVerifyProbesReplayBeforeWork(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		iss := newTestIssuer(t, WithIssuerBackend(b))
		ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(NewReplayCache(16, nil)))
		sol := issueSolved(t, iss, "c")
		if err := ver.Verify(sol, "c"); err != nil {
			t.Fatalf("first redemption: %v", err)
		}
		err := ver.Verify(withWrongNonce(sol), "c")
		if !errors.Is(err, ErrReplayed) || errors.Is(err, ErrFleetReplay) {
			t.Fatalf("redeemed token with wrong nonce = %v, want local ErrReplayed", err)
		}
	})
}

// A tag the fleet has seen is rejected as a fleet replay before the work
// check, and the local cache is left untouched.
func TestVerifyProbesFleetBeforeWork(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		iss := newTestIssuer(t, WithIssuerBackend(b))
		cache := NewReplayCache(16, nil)
		tags := newFakeTags()
		ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(cache), WithTagExchange(tags))
		sol := issueSolved(t, iss, "c")
		tags.seen[sol.Challenge.Tag] = true // redeemed on a peer
		for _, s := range []Solution{withWrongNonce(sol), sol} {
			if err := ver.Verify(s, "c"); !errors.Is(err, ErrFleetReplay) {
				t.Fatalf("fleet-seen tag (nonce %d) = %v, want ErrFleetReplay", s.Nonce, err)
			}
		}
		if cache.Contains(sol.Challenge.Seed) || tags.published != 0 {
			t.Fatal("a rejected fleet replay wrote replay state")
		}
	})
}

// Replay state stays hidden behind authentication, binding and freshness:
// a redeemed token that fails any of them reports that failure, not the
// replay.
func TestVerifyReplayStateHiddenBeforeAuthAndBinding(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		iss := newTestIssuer(t, WithIssuerBackend(b))
		tags := newFakeTags()
		ver := newTestVerifier(t, WithVerifierBackend(b),
			WithReplayCache(NewReplayCache(16, nil)), WithTagExchange(tags))
		sol := issueSolved(t, iss, "192.0.2.1")
		if err := ver.Verify(sol, "192.0.2.1"); err != nil {
			t.Fatalf("first redemption: %v", err)
		}
		flipped := sol
		flipped.Challenge.Tag[0] ^= 1
		if err := ver.Verify(flipped, "192.0.2.1"); !errors.Is(err, ErrBadTag) {
			t.Fatalf("flipped tag on a redeemed seed = %v, want ErrBadTag", err)
		}
		if err := ver.Verify(sol, "203.0.113.5"); !errors.Is(err, ErrBindingMismatch) {
			t.Fatalf("redeemed token from another IP = %v, want ErrBindingMismatch", err)
		}
		late := sol.Challenge.ExpiresAt().Add(time.Hour)
		if err := ver.VerifyAt(&sol, "192.0.2.1", late); !errors.Is(err, ErrExpired) {
			t.Fatalf("redeemed token after expiry = %v, want ErrExpired", err)
		}
	})
}

// A wrong nonce on a fresh token burns it neither locally nor fleet-wide.
func TestVerifyWrongNonceDoesNotBurnToken(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		iss := newTestIssuer(t, WithIssuerBackend(b))
		cache := NewReplayCache(16, nil)
		tags := newFakeTags()
		ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(cache), WithTagExchange(tags))
		sol := issueSolved(t, iss, "c")
		if err := ver.Verify(withWrongNonce(sol), "c"); !errors.Is(err, ErrWrongSolution) {
			t.Fatalf("wrong nonce = %v, want ErrWrongSolution", err)
		}
		if cache.Contains(sol.Challenge.Seed) || tags.SeenTag(sol.Challenge.Tag) {
			t.Fatal("a failed attempt burned the token")
		}
		if err := ver.Verify(sol, "c"); err != nil {
			t.Fatalf("correct solution after a failed attempt: %v", err)
		}
		if tags.published != 1 {
			t.Fatalf("published %d tags, want 1", tags.published)
		}
	})
}

// A balloon nonce that clears the shell but misses the target claims the
// seed before the evaluation runs, locally only: a resent copy, and even
// the correct nonce, is then a replay, rejected before any evaluation. So
// one shell solve buys the forger one balloon evaluation per node.
func TestVerifyShellPassingWrongNonceBurnsSeed(t *testing.T) {
	b, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	iss := newTestIssuer(t, WithIssuerBackend(b))
	cache := NewReplayCache(16, nil)
	tags := newFakeTags()
	ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(cache), WithTagExchange(tags))
	sol := issueSolved(t, iss, "c")
	forged := withShellOnlyNonce(sol)
	if err := ver.Verify(forged, "c"); !errors.Is(err, ErrWrongSolution) {
		t.Fatalf("shell-passing wrong nonce = %v, want ErrWrongSolution", err)
	}
	if !cache.Contains(sol.Challenge.Seed) {
		t.Fatal("a shell-passing wrong nonce left the seed unclaimed")
	}
	if tags.published != 0 || tags.SeenTag(sol.Challenge.Tag) {
		t.Fatal("a failed attempt was published to the fleet")
	}
	for _, s := range []Solution{forged, sol} {
		if err := ver.Verify(s, "c"); !errors.Is(err, ErrReplayed) {
			t.Fatalf("nonce %d after the burn = %v, want ErrReplayed", s.Nonce, err)
		}
	}
}

// Racing redemptions of one token: every goroutine may pass the read-only
// probe, but the claim admits exactly one.
func TestVerifyRedemptionRace(t *testing.T) {
	const goroutines, rounds = 16, 200
	for _, b := range []Backend{Hashcash(), testBalloon(t)} {
		for _, plane := range []string{"local", "fleet"} {
			t.Run(b.Name()+"-"+plane, func(t *testing.T) {
				opts := []VerifierOption{WithVerifierBackend(b), WithReplayCache(NewReplayCache(1024, nil))}
				if plane == "fleet" {
					opts = append(opts, WithTagExchange(newFakeTags()))
				}
				iss := newTestIssuer(t, WithIssuerBackend(b))
				ver := newTestVerifier(t, opts...)
				errs := make([]error, goroutines)
				for r := 0; r < rounds; r++ {
					sol := issueSolved(t, iss, "c")
					now := time.Now()
					start := make(chan struct{})
					var wg sync.WaitGroup
					for g := range errs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							<-start
							errs[g] = ver.VerifyAt(&sol, "c", now)
						}()
					}
					close(start)
					wg.Wait()
					accepted := 0
					for _, err := range errs {
						switch {
						case err == nil:
							accepted++
						case !errors.Is(err, ErrReplayed):
							t.Fatalf("round %d: losing redemption = %v, want ErrReplayed", r, err)
						}
					}
					if accepted != 1 {
						t.Fatalf("round %d: %d of %d racing redemptions accepted, want 1", r, accepted, goroutines)
					}
				}
			})
		}
	}
}

// Racing copies of one shell-passing wrong nonce: the claim comes before
// the balloon evaluation, so exactly one copy is evaluated and the rest
// are replays.
func TestVerifyShellPassingWrongNonceRace(t *testing.T) {
	const goroutines, rounds = 16, 100
	b := testBalloon(t)
	iss := newTestIssuer(t, WithIssuerBackend(b))
	ver := newTestVerifier(t, WithVerifierBackend(b), WithReplayCache(NewReplayCache(1024, nil)))
	errs := make([]error, goroutines)
	for r := 0; r < rounds; r++ {
		forged := withShellOnlyNonce(issueSolved(t, iss, "c"))
		now := time.Now()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = ver.VerifyAt(&forged, "c", now)
			}()
		}
		close(start)
		wg.Wait()
		evaluated := 0
		for _, err := range errs {
			switch {
			case errors.Is(err, ErrWrongSolution):
				evaluated++
			case !errors.Is(err, ErrReplayed):
				t.Fatalf("round %d: racing copy = %v, want ErrWrongSolution or ErrReplayed", r, err)
			}
		}
		if evaluated != 1 {
			t.Fatalf("round %d: %d of %d racing copies evaluated, want 1", r, evaluated, goroutines)
		}
	}
}

func TestVerifyDifferentKeyRejects(t *testing.T) {
	iss := newTestIssuer(t)
	otherKey := []byte("ffffffffffffffffffffffffffffffff")
	ver, err := NewVerifier(otherKey)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := iss.Issue("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	if err := ver.Verify(sol, "c"); !errors.Is(err, ErrBadTag) {
		t.Fatalf("err = %v, want ErrBadTag", err)
	}
}
