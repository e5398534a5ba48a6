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

// newRateFramework wires RateScorer into a core.Framework the way the
// control plane's `rate(saturation=…)` scorer over a `combined` source
// does: the tracker is both the source of the rate attribute and the
// observer of every request.
func newRateFramework(t *testing.T, pol policy.Policy, opts ...core.Option) *core.Framework {
	t.Helper()
	tracker, err := features.NewTracker(features.WithWindow(10*time.Second, 10))
	if err != nil {
		t.Fatal(err)
	}
	static, err := features.NewMapStore(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := features.NewCombined(static, tracker)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := NewRateScorer(20)
	if err != nil {
		t.Fatal(err)
	}
	base := []core.Option{
		core.WithKey(testKey),
		core.WithScorer(scorer),
		core.WithPolicy(pol),
		core.WithSource(combined),
		core.WithTracker(tracker),
	}
	f, err := core.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// hammer records 200 requests from ip over 10 s starting at now: 20 req/s,
// which saturates the test scorer at score 10.
func hammer(t *testing.T, f *core.Framework, ip string, now time.Time) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if err := f.Observe(features.RequestInfo{IP: ip, Path: "/", At: now.Add(time.Duration(i) * 50 * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
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
	now := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now.Add(10 * time.Second) }
	f := newRateFramework(t, policy.Policy1(), core.WithClock(clock))
	quiet, err := f.Decide(core.RequestContext{IP: "9.9.9.9"})
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, f, "9.9.9.9", now)
	loud, err := f.Decide(core.RequestContext{IP: "9.9.9.9"})
	if err != nil {
		t.Fatal(err)
	}
	if loud.Difficulty <= quiet.Difficulty {
		t.Fatalf("kaPoW did not escalate: quiet d=%d loud d=%d", quiet.Difficulty, loud.Difficulty)
	}
}

func TestKaPoWCustomPolicy(t *testing.T) {
	f := newRateFramework(t, policy.Policy2())
	// Idle client: rate 0 → score 0 → policy2 floor of 5.
	dec, err := f.Decide(core.RequestContext{IP: "1.2.3.4"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Difficulty != 5 {
		t.Fatalf("idle difficulty = %d, want policy2 floor 5", dec.Difficulty)
	}
}

// The fixed-difficulty comparator (`fixed(difficulty=…)` in specs) gives
// every client the same puzzle, whatever its score.
func TestFixedPoWUniformDifficulty(t *testing.T) {
	fixed, err := policy.NewFixed(8)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now.Add(10 * time.Second) }
	f := newRateFramework(t, fixed, core.WithClock(clock))
	hammer(t, f, "6.6.6.6", now)
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
	if _, err := policy.NewFixed(0); err == nil {
		t.Fatal("difficulty 0 accepted")
	}
}

// modelScorer scores a one-attribute row as itself, at a fixed confidence.
type modelScorer struct{ schema *features.Schema }

func (m modelScorer) Schema() *features.Schema { return m.schema }

func (m modelScorer) ScoreVector(v []float64) (float64, error) { return v[0], nil }

func (m modelScorer) VerdictVector(v []float64) (features.Verdict, error) {
	return features.Verdict{Score: v[0], Confidence: 0.5}, nil
}

// TestHybridScorerVerdicts pins max(model, rate) with verdicts carried
// through: the model's confidence when it wins, confidence 1 when the
// observed rate does.
func TestHybridScorerVerdicts(t *testing.T) {
	schema, err := features.NewSchema("threat")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridScorer(modelScorer{schema}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		row  []float64
		want features.Verdict
	}{
		{[]float64{7, 2}, features.Verdict{Score: 7, Confidence: 0.5}},
		{[]float64{3, 8}, features.Verdict{Score: 8, Confidence: 1}},
	} {
		got, err := h.VerdictVector(tc.row)
		if err != nil || got != tc.want {
			t.Errorf("verdict %v = %+v (%v), want %+v", tc.row, got, err, tc.want)
		}
		if score, err := h.ScoreVector(tc.row); err != nil || score != tc.want.Score {
			t.Errorf("score %v = %v (%v), want %v", tc.row, score, err, tc.want.Score)
		}
	}
	if _, err := NewHybridScorer(modelScorer{schema}, 0); err == nil {
		t.Error("zero saturation accepted")
	}
}
