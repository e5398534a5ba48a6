package policy

import (
	"math"
	"testing"
)

func TestPolicy3Validation(t *testing.T) {
	if _, err := Policy3(WithEpsilon(-1)); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := Policy3(WithEpsilon(math.NaN())); err == nil {
		t.Error("NaN epsilon accepted")
	}
	if _, err := Policy3(WithEpsilon(65)); err == nil {
		t.Error("epsilon above MaxDifficulty accepted")
	}
}

// drawRange reports the lowest and highest difficulty 2000 draws of p at
// score produce: the error interval, clamped to the protocol range.
func drawRange(p Policy, score float64) (lo, hi int) {
	lo, hi = math.MaxInt, math.MinInt
	for i := 0; i < 2000; i++ {
		d := p.Difficulty(score)
		lo, hi = min(lo, d), max(hi, d)
	}
	return lo, hi
}

func TestPolicy3Interval(t *testing.T) {
	p, err := Policy3(WithEpsilon(2.5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		score  float64
		lo, hi int
	}{
		// dᵢ = ⌈s+1⌉; interval [dᵢ+⌈−ε⌉, dᵢ+⌈ε⌉] = [dᵢ−2, dᵢ+3] for ε=2.5.
		{0, 1, 4},    // dᵢ=1: [-1, 4] clamps to [1, 4]
		{4, 3, 8},    // dᵢ=5
		{9.2, 9, 14}, // dᵢ=⌈10.2⌉=11
		{10, 9, 14},  // dᵢ=11
	}
	for _, tt := range tests {
		if lo, hi := drawRange(p, tt.score); lo != tt.lo || hi != tt.hi {
			t.Errorf("draws at %v span [%d, %d], want [%d, %d]", tt.score, lo, hi, tt.lo, tt.hi)
		}
	}
}

func TestPolicy3IntegerEpsilonSymmetric(t *testing.T) {
	p, err := Policy3(WithEpsilon(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := drawRange(p, 5); lo != 4 || hi != 8 { // dᵢ=6, symmetric ±2
		t.Fatalf("draws at 5 span [%d, %d], want [4, 8]", lo, hi)
	}
}

func TestPolicy3DrawsCoverIntervalAndClamp(t *testing.T) {
	p, err := Policy3(WithEpsilon(2.5), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 4000; i++ {
		seen[p.Difficulty(4)]++ // interval [3, 8]
	}
	for d := 3; d <= 8; d++ {
		if seen[d] == 0 {
			t.Errorf("difficulty %d never drawn from [3, 8]", d)
		}
	}
	for d := range seen {
		if d < 3 || d > 8 {
			t.Errorf("draw %d outside interval [3, 8]", d)
		}
	}
	// Uniformity sanity: each of 6 values should get roughly 1/6 of draws.
	for d := 3; d <= 8; d++ {
		frac := float64(seen[d]) / 4000
		if frac < 0.10 || frac > 0.23 {
			t.Errorf("draw %d frequency %.3f deviates from uniform 1/6", d, frac)
		}
	}
	// At score 0 the raw interval dips to -1; output must clamp to ≥ 1.
	for i := 0; i < 200; i++ {
		if d := p.Difficulty(0); d < 1 {
			t.Fatalf("clamped difficulty %d below protocol minimum", d)
		}
	}
}

func TestPolicy3Deterministic(t *testing.T) {
	mk := func() *ErrorRange {
		p, err := Policy3(WithEpsilon(2.5), WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		score := float64(i%11) + 0.3
		if da, db := a.Difficulty(score), b.Difficulty(score); da != db {
			t.Fatalf("same seed diverged at draw %d: %d != %d", i, da, db)
		}
	}
}

func TestPolicy3ZeroEpsilonEqualsPolicy1(t *testing.T) {
	p, err := Policy3(WithEpsilon(0), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	p1 := Policy1()
	for r := 0; r <= 10; r++ {
		if got, want := p.Difficulty(float64(r)), p1.Difficulty(float64(r)); got != want {
			t.Errorf("ε=0 Difficulty(%d) = %d, want policy1's %d", r, got, want)
		}
	}
}

func TestPolicy3Accessors(t *testing.T) {
	p, err := Policy3(WithEpsilon(3.25), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "policy3(eps=3.25)" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestPolicy3ConcurrentDraws(t *testing.T) {
	p, err := Policy3(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				if d := p.Difficulty(8); d < 1 || d > 64 {
					t.Errorf("concurrent draw out of range: %d", d)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
