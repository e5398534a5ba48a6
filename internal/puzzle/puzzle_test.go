package puzzle

import (
	"crypto/sha256"
	"encoding/binary"
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

// refShellBits is the balloon shell's difficulty, written independently
// of the package: S = max(0, ⌊log₂(space·(1+4·rounds))⌋ − 3).
func refShellBits(space, rounds uint32) int {
	return max(0, int(math.Floor(math.Log2(float64(space)*(1+4*float64(rounds)))))-3)
}

// refLeadingZeros counts leading zero bits one bit at a time.
func refLeadingZeros(b []byte) int {
	for i := 0; i < 8*len(b); i++ {
		if b[i/8]&(0x80>>(i%8)) != 0 {
			return i
		}
	}
	return 8 * len(b)
}

// refMeets is the test-side reference for the work check: a balloon nonce
// must clear the SHA-256 shell, computed here with crypto/sha256 over the
// canonical bytes and the 4- or 8-byte big-endian nonce, and then the
// Digest must meet the difficulty.
func refMeets(ch Challenge, nonce uint64) bool {
	if ch.Backend == BackendBalloon && !refPassesShell(ch, nonce) {
		return false
	}
	d := ch.Digest(nonce)
	return refLeadingZeros(d[:]) >= ch.Difficulty
}

// refPassesShell reports whether a balloon nonce clears the shell.
func refPassesShell(ch Challenge, nonce uint64) bool {
	pre := ch.canonical()
	if nonce <= math.MaxUint32 {
		pre = binary.BigEndian.AppendUint32(pre, uint32(nonce))
	} else {
		pre = binary.BigEndian.AppendUint64(pre, nonce)
	}
	shell := sha256.Sum256(pre)
	return refLeadingZeros(shell[:]) >= refShellBits(ch.Space, ch.Rounds)
}

// Property: for 32-bit nonces, Digest is stable and Meets agrees with the
// reference: the target check for hashcash, the shell then the target
// check for balloon.
func TestMeetsMatchesDigest(t *testing.T) {
	for _, c := range []struct {
		backend       BackendID
		space, rounds uint32
	}{
		{BackendHashcash, 0, 0},
		{BackendBalloon, 8, 1},
		{BackendBalloon, DefaultBalloonSpace, DefaultBalloonRounds},
	} {
		ch := Challenge{
			Version:    Version2,
			Backend:    c.backend,
			Space:      c.space,
			Rounds:     c.rounds,
			IssuedAt:   time.Unix(42, 0),
			TTL:        time.Minute,
			Difficulty: 2,
			Binding:    "client",
		}
		f := func(nonce uint32) bool {
			return ch.Meets(uint64(nonce)) == refMeets(ch, uint64(nonce))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s(%d, %d): %v", c.backend, c.space, c.rounds, err)
		}
		// A sweep long enough to hold accepted balloon nonces, which the
		// random draws above mostly miss behind the shell.
		accepted := 0
		for nonce := uint64(0); nonce < 2048; nonce++ {
			got := ch.Meets(nonce)
			if got != refMeets(ch, nonce) {
				t.Fatalf("%s(%d, %d): Meets(%d) = %v, reference disagrees",
					c.backend, c.space, c.rounds, nonce, got)
			}
			if got {
				accepted++
			}
		}
		if accepted == 0 {
			t.Fatalf("%s(%d, %d): no nonce below 2048 meets difficulty 2", c.backend, c.space, c.rounds)
		}
	}
}

// The shell's difficulty at the parameter bounds and the defaults.
func TestBalloonShellBits(t *testing.T) {
	for _, c := range []struct {
		space, rounds uint32
		want          int
	}{
		{2, 1, 0},       // cost 10: no shell
		{8, 1, 2},       // cost 40, the sim's balloon
		{256, 2, 8},     // cost 2304, the default
		{65536, 64, 21}, // cost 16 842 752, the largest accepted
	} {
		if got := balloonShellBits(c.space, c.rounds); got != c.want {
			t.Errorf("balloonShellBits(%d, %d) = %d, want %d", c.space, c.rounds, got, c.want)
		}
		if got := refShellBits(c.space, c.rounds); got != c.want {
			t.Errorf("refShellBits(%d, %d) = %d, want %d", c.space, c.rounds, got, c.want)
		}
	}
}

// Property: every accepted parameter pair costs at least 8 hashes per
// balloon evaluation (10 at the smallest), and cost/2^S lies in [8, 16):
// the server hashes one evaluation costs per expected forger hash spent
// finding a shell-passing nonce.
func TestBalloonShellRatioProperty(t *testing.T) {
	f := func(sRaw, rRaw uint32) bool {
		space := minBalloonSpace + sRaw%(maxBalloonSpace-minBalloonSpace+1)
		rounds := minBalloonRounds + rRaw%(maxBalloonRounds-minBalloonRounds+1)
		cost := float64(balloonCost(space, rounds))
		ratio := cost / math.Exp2(float64(balloonShellBits(space, rounds)))
		return ratio >= 8 && ratio < 16 && balloonShellBits(space, rounds) == refShellBits(space, rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
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
