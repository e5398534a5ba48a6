package puzzle

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

// testKey is a deterministic 32-byte HMAC key for tests.
var testKey = []byte("0123456789abcdef0123456789abcdef")

// seededRand adapts math/rand/v2 into an io.Reader for deterministic seeds.
type seededRand struct{ rng *rand.Rand }

func (s seededRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Uint32())
	}
	return len(p), nil
}

func newTestIssuer(t *testing.T, opts ...IssuerOption) *Issuer {
	t.Helper()
	iss, err := NewIssuer(testKey, opts...)
	if err != nil {
		t.Fatalf("NewIssuer: %v", err)
	}
	return iss
}

func TestNewIssuerRejectsShortKey(t *testing.T) {
	if _, err := NewIssuer([]byte("short")); !errors.Is(err, ErrKeyTooShort) {
		t.Fatalf("err = %v, want ErrKeyTooShort", err)
	}
}

func TestNewIssuerRejectsBadConfig(t *testing.T) {
	if _, err := NewIssuer(testKey, WithTTL(0)); err == nil {
		t.Error("zero TTL accepted")
	}
	if _, err := NewIssuer(testKey, WithIssuerMaxDifficulty(0)); err == nil {
		t.Error("zero max difficulty accepted")
	}
	if _, err := NewIssuer(testKey, WithIssuerMaxDifficulty(65)); err == nil {
		t.Error("max difficulty above protocol cap accepted")
	}
}

func TestIssueFields(t *testing.T) {
	at := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	iss := newTestIssuer(t, WithTTL(90*time.Second))
	ch, err := iss.IssueAt("192.0.2.7", 6, at)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if ch.Version != Version2 || ch.Backend != BackendHashcash || ch.Space != 0 || ch.Rounds != 0 {
		t.Errorf("wire identity = v%d/%s space=%d rounds=%d, want v2/hashcash with zero params",
			ch.Version, ch.Backend, ch.Space, ch.Rounds)
	}
	if !ch.IssuedAt.Equal(at) {
		t.Errorf("IssuedAt = %v, want %v", ch.IssuedAt, at)
	}
	if ch.TTL != 90*time.Second {
		t.Errorf("TTL = %v", ch.TTL)
	}
	if ch.Difficulty != 6 {
		t.Errorf("Difficulty = %d", ch.Difficulty)
	}
	if ch.Binding != "192.0.2.7" {
		t.Errorf("Binding = %q", ch.Binding)
	}
	if ch.Seed == ([SeedSize]byte{}) {
		t.Error("Seed is all zeros: entropy not read")
	}
	if ch.Tag == ([TagSize]byte{}) {
		t.Error("Tag is all zeros: not signed")
	}
}

func TestIssueUniqueSeeds(t *testing.T) {
	iss := newTestIssuer(t)
	seen := make(map[[SeedSize]byte]bool)
	for i := 0; i < 64; i++ {
		ch, err := iss.Issue("c", 1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ch.Seed] {
			t.Fatal("duplicate seed issued")
		}
		seen[ch.Seed] = true
	}
}

func TestIssueDifficultyValidation(t *testing.T) {
	iss := newTestIssuer(t, WithIssuerMaxDifficulty(20))
	tests := []struct {
		name string
		d    int
		ok   bool
	}{
		{"zero", 0, false},
		{"negative", -3, false},
		{"min", MinDifficulty, true},
		{"cap", 20, true},
		{"above_cap", 21, false},
		{"above_protocol", 65, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := iss.Issue("c", tt.d)
			if tt.ok && err != nil {
				t.Fatalf("Issue(%d) = %v, want nil", tt.d, err)
			}
			if !tt.ok && !errors.Is(err, ErrInvalidDifficulty) {
				t.Fatalf("Issue(%d) = %v, want ErrInvalidDifficulty", tt.d, err)
			}
		})
	}
}

func TestIssueRejectsLongBinding(t *testing.T) {
	iss := newTestIssuer(t)
	if _, err := iss.Issue(strings.Repeat("x", 256), 1); !errors.Is(err, ErrBindingTooLong) {
		t.Fatalf("err = %v, want ErrBindingTooLong", err)
	}
}

func TestIssueDeterministicWithInjectedRand(t *testing.T) {
	at := time.Unix(1000, 0)
	mk := func() *Issuer {
		return newTestIssuer(t,
			WithIssuerRand(seededRand{rand.New(rand.NewPCG(1, 2))}))
	}
	ch1, err := mk().IssueAt("c", 3, at)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := mk().IssueAt("c", 3, at)
	if err != nil {
		t.Fatal(err)
	}
	if ch1.Seed != ch2.Seed || ch1.Tag != ch2.Tag {
		t.Fatal("identical issuer state produced different challenges")
	}
}

func TestIssuerKeyIsCopied(t *testing.T) {
	key := append([]byte(nil), testKey...)
	iss, err := NewIssuer(key)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := iss.Issue("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range key {
		key[i] = 0 // caller mutates its copy
	}
	ver, err := NewVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrDie(t, ch)
	if err := ver.Verify(sol, ""); err != nil {
		t.Fatalf("verify after caller mutated key bytes: %v", err)
	}
}
