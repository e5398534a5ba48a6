package reputation

import (
	"math"
	"testing"

	"aipow/internal/features"
)

// stubScorer is a fixed-verdict inner scorer over a one-attribute schema.
type stubScorer struct {
	schema *features.Schema
	ver    features.Verdict
}

func newStubScorer(t *testing.T, score, conf float64) *stubScorer {
	t.Helper()
	schema, err := features.NewSchema("static_x")
	if err != nil {
		t.Fatal(err)
	}
	return &stubScorer{schema: schema, ver: features.Verdict{Score: score, Confidence: conf}}
}

func (s *stubScorer) Schema() *features.Schema                          { return s.schema }
func (s *stubScorer) ScoreVector([]float64) (float64, error)            { return s.ver.Score, nil }
func (s *stubScorer) VerdictVector([]float64) (features.Verdict, error) { return s.ver, nil }

// evidenceVec builds a Decay-schema vector with the given evidence.
func evidenceVec(t *testing.T, d *Decay, credit, failStreak, failRatio, rate, interArrival float64) []float64 {
	t.Helper()
	v := d.Schema().NewVector()
	set := func(name string, val float64) {
		j, ok := d.Schema().Index(name)
		if !ok {
			t.Fatalf("decay schema missing %q", name)
		}
		v[j] = val
	}
	set(features.AttrSolveCredit, credit)
	set(features.AttrFailStreak, failStreak)
	set(features.AttrFailRatioTotal, failRatio)
	set(features.AttrRequestRate, rate)
	set(features.AttrInterArrival, interArrival)
	return v
}

func TestDecaySchemaExtendsInner(t *testing.T) {
	d, err := NewDecay(newStubScorer(t, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"static_x", features.AttrSolveCredit, features.AttrFailStreak,
		features.AttrFailRatioTotal, features.AttrRequestRate, features.AttrInterArrival}
	got := d.Schema().Names()
	if len(got) != len(want) {
		t.Fatalf("schema %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schema %v, want %v", got, want)
		}
	}
}

func TestDecayRedemptionSaturatesWithCredit(t *testing.T) {
	d, err := NewDecay(newStubScorer(t, 8.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	clean := func(credit float64) float64 {
		ver, err := d.VerdictVector(evidenceVec(t, d, credit, 0, 0, 0.1, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return ver.Score
	}
	noCredit := clean(0)
	if noCredit != 8.5 {
		t.Fatalf("score with no credit = %v, want 8.5 (no redemption)", noCredit)
	}
	some, lots := clean(DefaultHalfCredit), clean(1e6)
	if !(lots < some && some < noCredit) {
		t.Fatalf("redemption not monotone in credit: %v, %v, %v", noCredit, some, lots)
	}
	// Half credit earns half the maximum drop; huge credit approaches it.
	if want := 8.5 - DefaultMaxRedemption/2; math.Abs(some-want) > 1e-9 {
		t.Errorf("half-credit score = %v, want %v", some, want)
	}
	if want := 8.5 - DefaultMaxRedemption; math.Abs(lots-want) > 0.2 {
		t.Errorf("saturated score = %v, want ≈%v", lots, want)
	}
	// Confidence passes through untouched.
	ver, _ := d.VerdictVector(evidenceVec(t, d, 100, 0, 0, 0.1, 10000))
	if ver.Confidence != 0.5 {
		t.Errorf("confidence = %v, want inner 0.5", ver.Confidence)
	}
}

func TestDecayGatesCancelRedemption(t *testing.T) {
	d, err := NewDecay(newStubScorer(t, 8.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name                                       string
		credit, failStreak, failRatio, rate, inter float64
		wantFull                                   bool // full (ungated) redemption expected
	}{
		{"clean slow client", 1e6, 0, 0, 0.1, 10000, true},
		{"verify fail streak", 1e6, DefaultMaxFailStreak, 0, 0.1, 10000, false},
		{"high fail ratio", 1e6, 0, DefaultFailRatioTolerance, 0.1, 10000, false},
		{"flooding rate", 1e6, 0, 0, DefaultRateTolerance, 10000, false},
		{"tight inter-arrival", 1e6, 0, 0, 0.1, DefaultInterArrivalTolerance / 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ver, err := d.VerdictVector(evidenceVec(t, d, tc.credit, tc.failStreak, tc.failRatio, tc.rate, tc.inter))
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantFull && ver.Score > 8.5-DefaultMaxRedemption+0.2 {
				t.Errorf("score %v: expected near-full redemption", ver.Score)
			}
			if !tc.wantFull && ver.Score != 8.5 {
				t.Errorf("score %v: expected the gate to cancel redemption entirely", ver.Score)
			}
		})
	}
}

// TestDecayKneeGates pins the soft knee: fully open while the signal is
// clearly inside tolerance, zero at it — no partial discount for a
// clearly-fast solver.
func TestDecayKneeGates(t *testing.T) {
	d, err := NewDecay(newStubScorer(t, 8.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	at := func(rate float64) float64 {
		ver, err := d.VerdictVector(evidenceVec(t, d, 1e9, 0, 0, rate, 1e9))
		if err != nil {
			t.Fatal(err)
		}
		return 8.5 - ver.Score // the drop
	}
	if drop := at(DefaultRateTolerance / 2); drop < DefaultMaxRedemption*0.99 {
		t.Errorf("drop at half tolerance = %v, want fully open (≈%v)", drop, DefaultMaxRedemption)
	}
	mid := at(DefaultRateTolerance * 0.75)
	if !(mid > 0 && mid < DefaultMaxRedemption) {
		t.Errorf("drop between knee and tolerance = %v, want partial", mid)
	}
	if drop := at(DefaultRateTolerance); drop != 0 {
		t.Errorf("drop at tolerance = %v, want 0", drop)
	}
}

func TestDecayScoreNeverNegative(t *testing.T) {
	d, err := NewDecay(newStubScorer(t, 1, 1), WithMaxRedemption(10))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := d.VerdictVector(evidenceVec(t, d, 1e9, 0, 0, 0.1, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	if ver.Score < 0 {
		t.Errorf("score %v went negative", ver.Score)
	}
}

func TestDecayValidation(t *testing.T) {
	stub := newStubScorer(t, 5, 1)
	cases := []struct {
		name string
		opts []DecayOption
	}{
		{"negative max redemption", []DecayOption{WithMaxRedemption(-1)}},
		{"excess max redemption", []DecayOption{WithMaxRedemption(11)}},
		{"zero half credit", []DecayOption{WithHalfCredit(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDecay(stub, tc.opts...); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := NewDecay(nil); err == nil {
		t.Error("want error for nil inner")
	}
}

// TestDecayOverModel wires the real trained model underneath: the
// redeemed verdict keeps the model's confidence, and evidence moves a
// high-scoring sample into a lower band.
func TestDecayOverModel(t *testing.T) {
	m, samples := trainedModel(t)
	d, err := NewDecay(m)
	if err != nil {
		t.Fatal(err)
	}
	var tail map[string]float64
	for _, s := range samples {
		if verdictOf(t, m, s.Attrs).Score > 8 {
			tail = s.Attrs
			break
		}
	}
	if tail == nil {
		t.Fatal("no tail sample in fixture")
	}
	attrs := make(map[string]float64, len(tail)+5)
	for k, v := range tail {
		attrs[k] = v
	}
	attrs[features.AttrSolveCredit] = 200
	attrs[features.AttrFailStreak] = 0
	attrs[features.AttrFailRatioTotal] = 0
	attrs[features.AttrRequestRate] = 0.3
	attrs[features.AttrInterArrival] = 3300
	redeemed := verdictOf(t, d, attrs)
	raw := verdictOf(t, m, tail)
	if redeemed.Score >= raw.Score-3 {
		t.Errorf("redeemed score %v vs raw %v: evidence barely moved it", redeemed.Score, raw.Score)
	}
	if redeemed.Confidence != raw.Confidence {
		t.Errorf("confidence changed: %v != %v", redeemed.Confidence, raw.Confidence)
	}
}
