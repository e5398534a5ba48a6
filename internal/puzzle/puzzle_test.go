package puzzle

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCountLeadingZeroBits(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want int
	}{
		{"empty", nil, 0},
		{"all_zero", []byte{0, 0, 0}, 24},
		{"msb_set", []byte{0x80}, 0},
		{"one_leading", []byte{0x40}, 1},
		{"seven_leading", []byte{0x01}, 7},
		{"byte_boundary", []byte{0x00, 0x80}, 8},
		{"cross_boundary", []byte{0x00, 0x01}, 15},
		{"two_zero_bytes", []byte{0x00, 0x00, 0xFF}, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CountLeadingZeroBits(tt.in); got != tt.want {
				t.Errorf("CountLeadingZeroBits(%x) = %d, want %d", tt.in, got, tt.want)
			}
		})
	}
}

// Property: the count equals the position of the first set bit, for any
// byte string.
func TestCountLeadingZeroBitsProperty(t *testing.T) {
	f := func(b []byte) bool {
		got := CountLeadingZeroBits(b)
		// Recompute naively bit by bit.
		want := 0
		for _, by := range b {
			stop := false
			for bit := 7; bit >= 0; bit-- {
				if by&(1<<uint(bit)) != 0 {
					stop = true
					break
				}
				want++
			}
			if stop {
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedAttempts(t *testing.T) {
	if got := ExpectedAttempts(1); got != 2 {
		t.Errorf("ExpectedAttempts(1) = %v, want 2", got)
	}
	if got := ExpectedAttempts(15); got != 32768 {
		t.Errorf("ExpectedAttempts(15) = %v, want 32768", got)
	}
}

func TestExpectedSolveTime(t *testing.T) {
	tests := []struct {
		name string
		d    int
		rate float64
		want time.Duration
	}{
		{"one_hash_per_sec", 0, 1, time.Second},
		{"d10_at_1024", 10, 1024, time.Second},
		{"zero_rate_saturates", 10, 0, time.Duration(math.MaxInt64)},
		{"overflow_saturates", 64, 1e-300, time.Duration(math.MaxInt64)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExpectedSolveTime(tt.d, tt.rate); got != tt.want {
				t.Errorf("ExpectedSolveTime(%d, %v) = %v, want %v", tt.d, tt.rate, got, tt.want)
			}
		})
	}
}

func TestChallengeExpiresAt(t *testing.T) {
	at := time.Date(2022, 3, 21, 12, 0, 0, 0, time.UTC)
	ch := Challenge{IssuedAt: at, TTL: time.Minute}
	if got := ch.ExpiresAt(); !got.Equal(at.Add(time.Minute)) {
		t.Fatalf("ExpiresAt() = %v", got)
	}
}

func TestCanonicalDistinguishesFields(t *testing.T) {
	base := Challenge{
		Version:    Version2,
		Backend:    BackendHashcash,
		IssuedAt:   time.Unix(100, 0),
		TTL:        time.Minute,
		Difficulty: 4,
		Binding:    "10.0.0.1",
	}
	variants := map[string]Challenge{}
	v := base
	v.Difficulty = 5
	variants["difficulty"] = v
	v = base
	v.Binding = "10.0.0.2"
	variants["binding"] = v
	v = base
	v.Seed[0] = 1
	variants["seed"] = v
	v = base
	v.IssuedAt = time.Unix(101, 0)
	variants["issued_at"] = v
	v = base
	v.TTL = 2 * time.Minute
	variants["ttl"] = v
	v = base
	v.Backend = BackendBalloon
	variants["backend"] = v
	v = base
	v.Space = 1
	variants["space"] = v
	v = base
	v.Rounds = 1
	variants["rounds"] = v

	baseC := string(base.canonical())
	for name, variant := range variants {
		if string(variant.canonical()) == baseC {
			t.Errorf("canonical() does not cover field %s", name)
		}
	}
}

// Property: for 32-bit nonces, Digest is stable and Meets agrees with a
// manual leading-zero check.
func TestMeetsMatchesDigest(t *testing.T) {
	ch := Challenge{
		Version:    Version2,
		Backend:    BackendHashcash,
		IssuedAt:   time.Unix(42, 0),
		TTL:        time.Minute,
		Difficulty: 2,
		Binding:    "client",
	}
	f := func(nonce uint32) bool {
		d := ch.Digest(uint64(nonce))
		return ch.Meets(uint64(nonce)) == (CountLeadingZeroBits(d[:]) >= ch.Difficulty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The nonce encoding must be width-stable: a value ≤ MaxUint32 always hashes
// as 4 bytes regardless of which solver phase produced it.
func TestAppendNonceWidth(t *testing.T) {
	if got := len(appendNonce(nil, math.MaxUint32)); got != 4 {
		t.Errorf("appendNonce(MaxUint32) len = %d, want 4", got)
	}
	if got := len(appendNonce(nil, math.MaxUint32+1)); got != 8 {
		t.Errorf("appendNonce(MaxUint32+1) len = %d, want 8", got)
	}
}
