package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

// threatScore scores IPs by their "threat" attribute directly: the
// map-shaped scoring function these fixtures were born with.
func threatScore(attrs map[string]float64) (float64, error) {
	v, ok := attrs["threat"]
	if !ok {
		return 0, errors.New("no threat attribute")
	}
	return v, nil
}

// mapScorer is threatScore behind the map adapter. Every fixture below
// prices through it, so the score/difficulty/fail-closed assertions in
// this file double as the adapter's round-trip test: they are the values
// the pre-adapter map scorer produced.
var mapScorer = func() features.VectorScorer {
	s, err := features.NewMapScorer(threatScore, "threat")
	if err != nil {
		panic(err)
	}
	return s
}()

// newTestSource maps two fixed IPs to low/high threat.
func newTestSource(t *testing.T) *features.MapStore {
	t.Helper()
	s, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("10.0.0.1", map[string]float64{"threat": 0})  // trustworthy
	s.Put("10.0.0.9", map[string]float64{"threat": 10}) // untrustworthy
	return s
}

func newTestFramework(t *testing.T, opts ...Option) *Framework {
	t.Helper()
	base := []Option{
		WithKey(testKey),
		WithScorer(mapScorer),
		WithPolicy(policy.Policy2()),
		WithSource(newTestSource(t)),
	}
	f, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestNewRequiresComponents(t *testing.T) {
	src := newTestSource(t)
	tests := []struct {
		name string
		opts []Option
	}{
		{"no_scorer", []Option{WithKey(testKey), WithPolicy(policy.Policy1()), WithSource(src)}},
		{"no_policy", []Option{WithKey(testKey), WithScorer(mapScorer), WithSource(src)}},
		{"no_source", []Option{WithKey(testKey), WithScorer(mapScorer), WithPolicy(policy.Policy1())}},
		{"no_key", []Option{WithScorer(mapScorer), WithPolicy(policy.Policy1()), WithSource(src)}},
		{"short_key", []Option{WithKey([]byte("x")), WithScorer(mapScorer), WithPolicy(policy.Policy1()), WithSource(src)}},
		{"bad_fail_closed", []Option{WithKey(testKey), WithScorer(mapScorer), WithPolicy(policy.Policy1()), WithSource(src), WithFailClosedScore(11)}},
		{"no_schema", []Option{WithKey(testKey), WithScorer(&vecScorer{}), WithPolicy(policy.Policy1()), WithSource(src)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.opts...); err == nil {
				t.Fatal("incomplete config accepted")
			}
		})
	}
}

func TestDecideMapsScoreThroughPolicy(t *testing.T) {
	f := newTestFramework(t)
	low, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	high, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if low.Score != 0 || high.Score != 10 {
		t.Fatalf("scores = %v, %v", low.Score, high.Score)
	}
	if low.Difficulty != 5 { // policy2: 0 → 5
		t.Errorf("low difficulty = %d, want 5", low.Difficulty)
	}
	if high.Difficulty != 15 { // policy2: 10 → 15
		t.Errorf("high difficulty = %d, want 15", high.Difficulty)
	}
	if low.Challenge.Binding != "10.0.0.1" {
		t.Errorf("challenge bound to %q", low.Challenge.Binding)
	}
	if low.Challenge.Difficulty != low.Difficulty {
		t.Errorf("challenge difficulty %d != decision %d", low.Challenge.Difficulty, low.Difficulty)
	}
}

func TestDecideRequiresIP(t *testing.T) {
	f := newTestFramework(t)
	if _, err := f.Decide(RequestContext{}); err == nil {
		t.Fatal("empty IP accepted")
	}
}

func TestDecideFailClosed(t *testing.T) {
	// The fallback profile carries no "threat" attribute → fails closed.
	s, err := features.NewMapStore(map[string]float64{"other": 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(WithKey(testKey), WithScorer(mapScorer),
		WithPolicy(policy.Policy1()), WithSource(s))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "8.8.8.8"})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dec.ScoreErr, features.ErrMissingAttr) {
		t.Fatalf("ScoreErr = %v, want ErrMissingAttr", dec.ScoreErr)
	}
	if dec.Score != policy.MaxScore {
		t.Fatalf("fail-closed score = %v, want %v", dec.Score, policy.MaxScore)
	}
	if dec.Difficulty != 11 { // policy1 at score 10
		t.Fatalf("difficulty = %d, want 11", dec.Difficulty)
	}
	if f.Stats()["score_errors"] != 1 {
		t.Fatalf("score_errors stat = %v", f.Stats()["score_errors"])
	}
}

func TestDecideFailOpenConfigurable(t *testing.T) {
	s, err := features.NewMapStore(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(WithKey(testKey), WithScorer(mapScorer),
		WithPolicy(policy.Policy1()), WithSource(s), WithFailClosedScore(0))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "8.8.8.8"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score != 0 || dec.Difficulty != 1 {
		t.Fatalf("fail-open decision = %+v", dec)
	}
}

func TestDecideBypass(t *testing.T) {
	f := newTestFramework(t, WithBypassBelow(3))
	low, err := f.Decide(RequestContext{IP: "10.0.0.1"}) // score 0 < 3
	if err != nil {
		t.Fatal(err)
	}
	if !low.Bypassed || low.Difficulty != 0 {
		t.Fatalf("trusted client not bypassed: %+v", low)
	}
	if low.Challenge.Version != 0 {
		t.Fatal("bypassed decision carries a challenge")
	}
	high, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if high.Bypassed {
		t.Fatal("suspicious client bypassed")
	}
	if f.Stats()["bypassed"] != 1 {
		t.Fatalf("bypassed stat = %v", f.Stats()["bypassed"])
	}
}

func TestEndToEndSolveAndVerify(t *testing.T) {
	f := newTestFramework(t)
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, "10.0.0.1"); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Replay must be rejected.
	if err := f.Verify(sol, "10.0.0.1"); !errors.Is(err, puzzle.ErrReplayed) {
		t.Fatalf("replay = %v, want ErrReplayed", err)
	}
	// Wrong presenter must be rejected.
	dec2, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol2, _, err := puzzle.NewSolver().Solve(context.Background(), dec2.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol2, "10.0.0.9"); !errors.Is(err, puzzle.ErrBindingMismatch) {
		t.Fatalf("wrong presenter = %v, want ErrBindingMismatch", err)
	}
	stats := f.Stats()
	if stats["issued"] != 2 || stats["verified"] != 1 || stats["rejected"] != 2 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestHooksObserveDecisions(t *testing.T) {
	var mu sync.Mutex
	var seen []Decision
	f := newTestFramework(t, WithHook(func(d Decision) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, d)
	}))
	if _, err := f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].IP != "10.0.0.9" || seen[0].Difficulty != 15 {
		t.Fatalf("hook saw %+v", seen)
	}
}

func TestObserveForwardsToTracker(t *testing.T) {
	tr, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFramework(t, WithTracker(tr))
	if err := f.Observe(features.RequestInfo{IP: "1.2.3.4", Path: "/", At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if tr.Tracked() != 1 {
		t.Fatal("tracker did not record request")
	}
	// Without a tracker Observe is a silent no-op.
	f2 := newTestFramework(t)
	if err := f2.Observe(features.RequestInfo{IP: "1.2.3.4", Path: "/", At: time.Now()}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockIntegration(t *testing.T) {
	now := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	f := newTestFramework(t, WithClock(clock), WithTTL(30*time.Second))
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Minute) // beyond TTL + skew
	if err := f.Verify(sol, "10.0.0.1"); !errors.Is(err, puzzle.ErrExpired) {
		t.Fatalf("expired solution = %v, want ErrExpired", err)
	}
}

func TestPolicyNamePassthrough(t *testing.T) {
	f := newTestFramework(t)
	if got := f.PolicyName(); got != "policy2" {
		t.Fatalf("PolicyName() = %q", got)
	}
}
