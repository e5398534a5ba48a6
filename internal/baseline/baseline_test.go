package baseline

import (
	"errors"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

func testSource(t *testing.T) *features.MapStore {
	t.Helper()
	s, err := features.NewMapStore(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNoPoWBypassesEverything(t *testing.T) {
	f, err := NewNoPoW(testKey, testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(core.RequestContext{IP: "6.6.6.6"})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed {
		t.Fatalf("NoPoW issued a challenge: %+v", dec)
	}
}

func TestFixedPoWUniformDifficulty(t *testing.T) {
	f, err := NewFixedPoW(testKey, testSource(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, ip := range []string{"1.1.1.1", "6.6.6.6"} {
		dec, err := f.Decide(core.RequestContext{IP: ip})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Difficulty != 8 {
			t.Fatalf("ip %s difficulty = %d, want 8", ip, dec.Difficulty)
		}
	}
}

func TestFixedPoWValidatesDifficulty(t *testing.T) {
	if _, err := NewFixedPoW(testKey, testSource(t), 0); err == nil {
		t.Fatal("difficulty 0 accepted")
	}
}

func TestRateScorerValidation(t *testing.T) {
	if _, err := NewRateScorer(0); err == nil {
		t.Fatal("zero saturation accepted")
	}
	s, err := NewRateScorer(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := features.ScoreAttrs(s, map[string]float64{}); !errors.Is(err, features.ErrMissingAttr) {
		t.Fatalf("score without the rate attribute = %v, want ErrMissingAttr", err)
	}
}

func TestRateScorerMapping(t *testing.T) {
	s, err := NewRateScorer(10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		rate float64
		want float64
	}{
		{0, 0}, {5, 5}, {10, 10}, {100, 10}, {-1, 0},
	}
	for _, tt := range tests {
		got, err := features.ScoreAttrs(s, map[string]float64{features.AttrRequestRate: tt.rate})
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("Score(rate=%v) = %v, want %v", tt.rate, got, tt.want)
		}
	}
}

func TestKaPoWEscalatesWithRate(t *testing.T) {
	tracker, err := features.NewTracker(features.WithWindow(10*time.Second, 10))
	if err != nil {
		t.Fatal(err)
	}
	static := testSource(t)
	combined, err := features.NewCombined(static, tracker)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now.Add(10 * time.Second) }
	f, err := NewKaPoW(testKey, combined, tracker, 20, nil, core.WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := f.Decide(core.RequestContext{IP: "9.9.9.9"})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the tracker: 200 requests in 10 s → 20 req/s → score 10.
	for i := 0; i < 200; i++ {
		if err := f.Observe(features.RequestInfo{IP: "9.9.9.9", Path: "/", At: now.Add(time.Duration(i) * 50 * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
	}
	// The decision consults the tracker through the combined source; use a
	// clock-free probe by scoring directly after observations.
	loud, err := f.Decide(core.RequestContext{IP: "9.9.9.9"})
	if err != nil {
		t.Fatal(err)
	}
	_ = quiet
	if loud.Difficulty <= quiet.Difficulty {
		t.Fatalf("kaPoW did not escalate: quiet d=%d loud d=%d", quiet.Difficulty, loud.Difficulty)
	}
}

func TestKaPoWRequiresTracker(t *testing.T) {
	if _, err := NewKaPoW(testKey, testSource(t), nil, 10, nil); err == nil {
		t.Fatal("nil tracker accepted")
	}
}

func TestKaPoWCustomPolicy(t *testing.T) {
	tracker, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	combined, err := features.NewCombined(testSource(t), tracker)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewKaPoW(testKey, combined, tracker, 20, policy.Policy2())
	if err != nil {
		t.Fatal(err)
	}
	// Idle client: rate 0 → score 0 → policy2 floor of 5.
	dec, err := f.Decide(core.RequestContext{IP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Difficulty != 5 {
		t.Fatalf("idle difficulty = %d, want policy2 floor 5", dec.Difficulty)
	}
}
