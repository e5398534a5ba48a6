package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// verdictVecScorer extends the toy vector scorer with a fixed confidence.
type verdictVecScorer struct {
	vecScorer
	conf        float64
	verdictHits atomic.Int64
}

func newVerdictScorer(t *testing.T, conf float64) *verdictVecScorer {
	t.Helper()
	return &verdictVecScorer{vecScorer: *newVecScorer(t), conf: conf}
}

func (s *verdictVecScorer) VerdictVector(v []float64) (features.Verdict, error) {
	s.verdictHits.Add(1)
	return features.Verdict{Score: v[0], Confidence: s.conf}, nil
}

// TestDecideThreadsConfidenceToShapedPolicy wires a verdict scorer with a
// confidence-shaped policy: the decision carries the scorer's confidence
// and the difficulty is the shaded one.
func TestDecideThreadsConfidenceToShapedPolicy(t *testing.T) {
	scorer := newVerdictScorer(t, 0.5)
	shaped, err := policy.NewConfidenceShaped(policy.Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(
		WithKey(testKey),
		WithScorer(scorer),
		WithPolicy(shaped),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"}) // threat 10
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score != 10 || dec.Confidence != 0.5 {
		t.Errorf("decision = score %v conf %v, want 10 / 0.5", dec.Score, dec.Confidence)
	}
	// Shaded: effective = 5 + 0.5·5 = 7.5 → Policy 2 difficulty 13.
	if want := policy.Policy2().Difficulty(7.5); dec.Difficulty != want {
		t.Errorf("difficulty = %d, want shaded %d", dec.Difficulty, want)
	}
	if scorer.verdictHits.Load() == 0 {
		t.Error("verdict fast path never engaged")
	}
}

// TestDecideSkipsVerdictForPlainPolicy pins the perf contract: a policy
// that does not consume confidence must not pay for its computation, and
// the decision reports confidence 1.
func TestDecideSkipsVerdictForPlainPolicy(t *testing.T) {
	scorer := newVerdictScorer(t, 0.5)
	f, err := New(
		WithKey(testKey),
		WithScorer(scorer),
		WithPolicy(policy.Policy2()),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if scorer.verdictHits.Load() != 0 {
		t.Error("verdict computed for a policy that cannot consume it")
	}
	if dec.Confidence != 1 {
		t.Errorf("confidence = %v, want implied 1", dec.Confidence)
	}
	if want := policy.Policy2().Difficulty(10); dec.Difficulty != want {
		t.Errorf("difficulty = %d, want unshaded %d", dec.Difficulty, want)
	}
}

// TestDecideShapedThroughClamp mirrors the control plane's wiring: the
// shaped policy sits under the registry's mandatory clamp, and confidence
// still flows.
func TestDecideShapedThroughClamp(t *testing.T) {
	scorer := newVerdictScorer(t, 0)
	shaped, err := policy.NewConfidenceShaped(policy.Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := policy.NewClamp(shaped, 1, 22)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(
		WithKey(testKey),
		WithScorer(scorer),
		WithPolicy(clamped),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	// Zero confidence, zero floor: shaded to the anchor, difficulty 10.
	if want := policy.Policy2().Difficulty(5); dec.Difficulty != want {
		t.Errorf("difficulty = %d, want anchor-shaded %d", dec.Difficulty, want)
	}
}

// TestFailClosedConfidenceIsFull pins that a fail-closed substitution is
// enforced at confidence 1 — a confidence-shaped policy must not soften
// the fail-closed price.
func TestFailClosedConfidenceIsFull(t *testing.T) {
	shaped, err := policy.NewConfidenceShaped(policy.Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(
		WithKey(testKey),
		WithScorer(errScorer{}),
		WithPolicy(shaped),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.ScoreErr == nil || dec.Confidence != 1 {
		t.Fatalf("fail-closed decision = %+v, want ScoreErr set and confidence 1", dec)
	}
	if want := policy.Policy2().Difficulty(10); dec.Difficulty != want {
		t.Errorf("fail-closed difficulty = %d, want full %d", dec.Difficulty, want)
	}
}

// TestVerifyWritesEvidence pins the behavioral write-back: a verified
// solve lands as solve credit in the attached tracker, a failed one as a
// fail streak — and Verify without a tracker keeps working.
func TestVerifyWritesEvidence(t *testing.T) {
	tracker, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	f, err := New(
		WithKey(testKey),
		WithScorer(newVecScorer(t)),
		WithPolicy(policy.Policy1()),
		WithSource(newTestSource(t)),
		WithTracker(tracker),
		WithClock(func() time.Time { return now }),
	)
	if err != nil {
		t.Fatal(err)
	}
	const ip = "10.0.0.1"
	dec, err := f.Decide(RequestContext{IP: ip})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, ip); err != nil {
		t.Fatal(err)
	}
	// evidence reads the tracker's credit and fail-streak slots.
	evSchema, err := features.NewSchema(features.AttrSolveCredit, features.AttrFailStreak)
	if err != nil {
		t.Fatal(err)
	}
	evidence := func() (credit, failStreak float64) {
		v := evSchema.NewVector()
		tracker.AttributesVector(v, evSchema, ip, now)
		return v[0], v[1]
	}
	if got, _ := evidence(); got != float64(dec.Difficulty) {
		t.Errorf("solve credit = %v, want %d", got, dec.Difficulty)
	}

	// A tampered solution fails verification and extends the fail streak.
	bad := sol
	bad.Challenge.Tag[0] ^= 0xFF
	if err := f.Verify(bad, ip); err == nil {
		t.Fatal("tampered solution verified")
	}
	if _, got := evidence(); got != 1 {
		t.Errorf("fail streak = %v, want 1", got)
	}

	// RecordVerifyEvidence is the modeled-verification twin.
	f.RecordVerifyEvidence(ip, 9, true)
	credit, streak := evidence()
	if streak != 0 {
		t.Errorf("fail streak after modeled solve = %v, want 0", streak)
	}
	if credit != float64(dec.Difficulty)+9 {
		t.Errorf("credit after modeled solve = %v, want %v", credit, float64(dec.Difficulty)+9)
	}
}

// TestVerifyWithoutTrackerStillWorks guards the no-tracker configuration.
func TestVerifyWithoutTrackerStillWorks(t *testing.T) {
	f, err := New(
		WithKey(testKey),
		WithScorer(newVecScorer(t)),
		WithPolicy(policy.Policy1()),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	const ip = "10.0.0.1"
	dec, err := f.Decide(RequestContext{IP: ip})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, ip); err != nil {
		t.Fatal(err)
	}
	f.RecordVerifyEvidence(ip, 5, true) // counted, no evidence to write
}

// TestRecordVerifyEvidenceCounts pins that an externally adjudicated
// verification balances the books like Verify does: verified/rejected and
// the per-difficulty verified profile count it, tracker or not.
func TestRecordVerifyEvidenceCounts(t *testing.T) {
	f, err := New(
		WithKey(testKey),
		WithScorer(newVecScorer(t)),
		WithPolicy(policy.Policy1()),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	f.RecordVerifyEvidence("10.0.0.1", 9, true)
	f.RecordVerifyEvidence("10.0.0.2", 9, true)
	f.RecordVerifyEvidence("10.0.0.3", 7, false)
	stats := f.Stats()
	if stats["verified"] != 2 || stats["rejected"] != 1 {
		t.Fatalf("verified %v rejected %v, want 2 and 1", stats["verified"], stats["rejected"])
	}
	verified := make([]uint64, puzzle.MaxDifficulty+1)
	f.DifficultyProfileInto(nil, verified)
	if verified[9] != 2 || verified[7] != 0 {
		t.Fatalf("verified profile d9=%d d7=%d, want 2 and 0", verified[9], verified[7])
	}
}

// TestSwapRewiresVerdictPath pins that hot-swapping between a plain and a
// shaped policy re-resolves the verdict wiring.
func TestSwapRewiresVerdictPath(t *testing.T) {
	scorer := newVerdictScorer(t, 0)
	f, err := New(
		WithKey(testKey),
		WithScorer(scorer),
		WithPolicy(policy.Policy2()),
		WithSource(newTestSource(t)),
	)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := policy.NewConfidenceShaped(policy.Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapPolicy(shaped); err != nil {
		t.Fatal(err)
	}
	after, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Difficulty == after.Difficulty {
		t.Error("swap to shaped policy did not change the difficulty")
	}
	if after.Confidence != 0 {
		t.Errorf("confidence = %v after swap, want scorer's 0", after.Confidence)
	}
}
