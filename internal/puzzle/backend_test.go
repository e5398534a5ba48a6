package puzzle

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

// testBalloon returns a small, fast balloon backend for tests.
func testBalloon(t *testing.T) Backend {
	t.Helper()
	b, err := NewBalloon(8, 1)
	if err != nil {
		t.Fatalf("NewBalloon: %v", err)
	}
	return b
}

func TestBackendConstructors(t *testing.T) {
	if got := Hashcash().ID(); got != BackendHashcash {
		t.Fatalf("Hashcash().ID() = %v, want BackendHashcash", got)
	}
	b := testBalloon(t)
	if got := b.ID(); got != BackendBalloon {
		t.Fatalf("balloon ID() = %v, want BackendBalloon", got)
	}
	// Both backends issue the one wire format, tagged with their ID.
	for _, be := range []Backend{Hashcash(), b} {
		ch, err := newTestIssuer(t, WithIssuerBackend(be)).Issue("192.0.2.7", 1)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Version != Version2 || ch.Backend != be.ID() {
			t.Fatalf("%s issues v%d/%s, want v%d/%s",
				be.Name(), ch.Version, ch.Backend, Version2, be.ID())
		}
	}
	if b.AttemptCost() <= Hashcash().AttemptCost() {
		t.Fatalf("balloon AttemptCost() = %v, want > hashcash's %v",
			b.AttemptCost(), Hashcash().AttemptCost())
	}
	if b.MemoryPerAttempt() <= Hashcash().MemoryPerAttempt() {
		t.Fatalf("balloon MemoryPerAttempt() = %d, want > hashcash's %d",
			b.MemoryPerAttempt(), Hashcash().MemoryPerAttempt())
	}
}

func TestParseBackendSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantID  BackendID
		wantErr bool
	}{
		{"", BackendHashcash, false},
		{"hashcash", BackendHashcash, false},
		{"hashcash(bits=22)", BackendHashcash, false},
		{"balloon", BackendBalloon, false},
		{"balloon(space=256, time=2)", BackendBalloon, false},
		{"balloon(space=8,time=1)", BackendBalloon, false},
		{"scrypt", 0, true},
		{"hashcash(bits=0)", 0, true},
		{"balloon(space=1)", 0, true},
		{"balloon(bogus=3)", 0, true},
		{"balloon(space=", 0, true},
	}
	for _, tc := range cases {
		b, err := ParseBackendSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseBackendSpec(%q): no error, want one", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBackendSpec(%q): %v", tc.spec, err)
			continue
		}
		if b.ID() != tc.wantID {
			t.Errorf("ParseBackendSpec(%q).ID() = %v, want %v", tc.spec, b.ID(), tc.wantID)
		}
		// Spec() is canonical: re-parsing it yields the same backend.
		again, err := ParseBackendSpec(b.Spec())
		if err != nil {
			t.Errorf("re-parse %q: %v", b.Spec(), err)
		} else if again.Spec() != b.Spec() {
			t.Errorf("Spec() not canonical: %q re-parses to %q", b.Spec(), again.Spec())
		}
	}
	if _, err := ParseBackendSpec("scrypt"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend err = %v, want ErrUnknownBackend", err)
	}
}

// TestCrossBackendVerificationRejected pins the downgrade-proofing
// contract: a solution produced under one backend never verifies under a
// verifier pinned to another, regardless of which direction the mismatch
// runs and regardless of whether the nonce genuinely meets the other
// backend's difficulty predicate.
func TestCrossBackendVerificationRejected(t *testing.T) {
	balloon := testBalloon(t)
	solver := NewSolver()
	cases := []struct {
		name    string
		issue   []IssuerOption
		verify  []VerifierOption
		wantGap bool // verifier backend differs from issuer backend
	}{
		{"hashcash-to-hashcash", nil, nil, false},
		{"balloon-to-balloon",
			[]IssuerOption{WithIssuerBackend(balloon)},
			[]VerifierOption{WithVerifierBackend(balloon)}, false},
		{"hashcash-to-balloon-verifier", nil,
			[]VerifierOption{WithVerifierBackend(balloon)}, true},
		{"balloon-to-hashcash-verifier",
			[]IssuerOption{WithIssuerBackend(balloon)}, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iss := newTestIssuer(t, tc.issue...)
			ver := newTestVerifier(t, tc.verify...)
			ch, err := iss.Issue("192.0.2.7", 2)
			if err != nil {
				t.Fatal(err)
			}
			sol, _, err := solver.Solve(context.Background(), ch)
			if err != nil {
				t.Fatal(err)
			}
			err = ver.Verify(sol, "192.0.2.7")
			if !tc.wantGap {
				if err != nil {
					t.Fatalf("same-backend verify failed: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrVerify) || !errors.Is(err, ErrBadVersion) {
				t.Fatalf("cross-backend verify err = %v, want ErrVerify+ErrBadVersion", err)
			}
		})
	}
}

// TestDowngradeForgeryRejected relabels a genuine balloon challenge as
// hashcash — the active downgrade an attacker would mount to swap
// memory-hard work for cheap SHA-256 — solves it for real, and checks
// both verifiers refuse it: the balloon verifier by its backend gate, the
// hashcash verifier because the MAC covers the backend byte and the cost
// parameters.
func TestDowngradeForgeryRejected(t *testing.T) {
	balloon := testBalloon(t)
	iss := newTestIssuer(t, WithIssuerBackend(balloon))
	ch, err := iss.Issue("192.0.2.9", 2)
	if err != nil {
		t.Fatal(err)
	}
	down := ch
	down.Backend, down.Space, down.Rounds = BackendHashcash, 0, 0
	sol, _, err := NewSolver().Solve(context.Background(), down)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Challenge.Meets(sol.Nonce) {
		t.Fatal("relabelled challenge not solved")
	}
	for _, tc := range []struct {
		name string
		ver  *Verifier
		want error
	}{
		{"balloon-verifier", newTestVerifier(t, WithVerifierBackend(balloon)), ErrBadVersion},
		{"hashcash-verifier", newTestVerifier(t), ErrBadTag},
	} {
		if err := tc.ver.Verify(sol, "192.0.2.9"); !errors.Is(err, ErrVerify) || !errors.Is(err, tc.want) {
			t.Fatalf("%s on downgraded token: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestBackendTokenDecodeRejectsGarbage covers the wire format's
// structural checks: truncation at every interesting boundary, a zeroed
// backend ID, and an unknown backend ID (which decodes but must then be
// refused by every verifier).
func TestBackendTokenDecodeRejectsGarbage(t *testing.T) {
	balloon := testBalloon(t)
	iss := newTestIssuer(t, WithIssuerBackend(balloon))
	ch, err := iss.Issue("192.0.2.11", 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(raw); cut++ {
		var decoded Challenge
		if err := decoded.UnmarshalBinary(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}

	backendOff := len(magic) + 1
	zeroed := append([]byte(nil), raw...)
	zeroed[backendOff] = 0
	var decoded Challenge
	if err := decoded.UnmarshalBinary(zeroed); err == nil ||
		!strings.Contains(err.Error(), "backend") {
		t.Fatalf("zero backend ID decode err = %v, want backend error", err)
	}

	unknown := append([]byte(nil), raw...)
	unknown[backendOff] = 0x7f
	var uch Challenge
	if err := uch.UnmarshalBinary(unknown); err != nil {
		// Structural rejection of unknown IDs is also acceptable.
		return
	}
	sol := Solution{Challenge: uch, Nonce: 0}
	for _, ver := range []*Verifier{
		newTestVerifier(t),
		newTestVerifier(t, WithVerifierBackend(balloon)),
	} {
		if err := ver.Verify(sol, "192.0.2.11"); !errors.Is(err, ErrVerify) {
			t.Fatalf("unknown backend ID verified: %v", err)
		}
	}
}

// TestChallengeTextRoundTripPerBackend pins that MarshalText is lossless
// for every backend, including the balloon cost parameters.
func TestChallengeTextRoundTripPerBackend(t *testing.T) {
	balloonSmall := testBalloon(t)
	balloonDefault, err := NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []IssuerOption
	}{
		{"hashcash", nil},
		{"balloon-small", []IssuerOption{WithIssuerBackend(balloonSmall)}},
		{"balloon-default", []IssuerOption{WithIssuerBackend(balloonDefault)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iss := newTestIssuer(t, tc.opts...)
			ch, err := iss.Issue("198.51.100.4", 3)
			if err != nil {
				t.Fatal(err)
			}
			text, err := ch.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back Challenge
			if err := back.UnmarshalText(text); err != nil {
				t.Fatal(err)
			}
			assertChallengeEqual(t, ch, back)
			sol := Solution{Challenge: ch, Nonce: 0x1234abcd}
			st, err := sol.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var sback Solution
			if err := sback.UnmarshalText(st); err != nil {
				t.Fatal(err)
			}
			assertChallengeEqual(t, sol.Challenge, sback.Challenge)
			if sback.Nonce != sol.Nonce {
				t.Fatalf("solution nonce round trip: got %#x, want %#x", sback.Nonce, sol.Nonce)
			}
		})
	}
}

// TestAnyBitFlipIsDetectedBalloon extends the central tamper property to
// balloon tokens: flipping any single bit — including the
// backend ID and the space/time cost parameters, which ride under the
// HMAC — must make the token undecodable or unverifiable.
func TestAnyBitFlipIsDetectedBalloon(t *testing.T) {
	balloon := testBalloon(t)
	iss := newTestIssuer(t, WithIssuerBackend(balloon))
	ver := newTestVerifier(t, WithVerifierBackend(balloon))
	solver := NewSolver()

	ch, err := iss.Issue("192.0.2.33", 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := solver.Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ver.Verify(sol, "192.0.2.33"); err != nil {
		t.Fatalf("pristine solution rejected: %v", err)
	}
	raw, err := ch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(2022, 3))
	// A random sample of positions, plus every byte of the header
	// (magic, version, backend ID, space, rounds) and the full tag —
	// the backend fields are exactly the ones a downgrade forgery
	// would rewrite.
	positions := map[int]bool{}
	for i := 0; i < 120; i++ {
		positions[rng.IntN(len(raw))] = true
	}
	for i := 0; i < binaryFixedSize-SeedSize-8-8-2-2; i++ {
		positions[i] = true
	}
	for i := len(raw) - TagSize; i < len(raw); i++ {
		positions[i] = true
	}
	for pos := range positions {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), raw...)
			mutated[pos] ^= 1 << uint(bit)

			var decoded Challenge
			if err := decoded.UnmarshalBinary(mutated); err != nil {
				continue // structural detection
			}
			forged := Solution{Challenge: decoded, Nonce: sol.Nonce}
			if err := ver.Verify(forged, "192.0.2.33"); err == nil {
				t.Fatalf("bit flip at byte %d bit %d survived verification", pos, bit)
			}
		}
	}
}
