package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/policy"
)

// vecScorer is a toy VectorScorer: score = threat slot value, counting its
// invocations so tests can tell a scored row from a refused one. The zero
// value publishes no schema.
type vecScorer struct {
	schema *features.Schema
	hits   atomic.Int64
}

func newVecScorer(t *testing.T) *vecScorer {
	t.Helper()
	s, err := features.NewSchema("threat")
	if err != nil {
		t.Fatal(err)
	}
	return &vecScorer{schema: s}
}

func (s *vecScorer) Schema() *features.Schema { return s.schema }

func (s *vecScorer) ScoreVector(v []float64) (float64, error) {
	s.hits.Add(1)
	return v[0], nil
}

// TestDecideScoresStoreProfiles asserts Decide scores known profiles and
// the fallback profile alike through the scorer's vector.
func TestDecideScoresStoreProfiles(t *testing.T) {
	scorer := newVecScorer(t)
	f := newTestFramework(t, WithScorer(scorer))
	for ip, want := range map[string]float64{
		"10.0.0.1": 0,  // known, trustworthy
		"10.0.0.9": 10, // known, untrustworthy
		"10.9.9.9": 5,  // fallback profile
	} {
		dec, err := f.Decide(RequestContext{IP: ip})
		if err != nil {
			t.Fatalf("Decide(%s): %v", ip, err)
		}
		if dec.Score != want {
			t.Errorf("Decide(%s).Score = %v, want %v", ip, dec.Score, want)
		}
	}
	if scorer.hits.Load() != 3 {
		t.Errorf("scorer hits = %d, want 3", scorer.hits.Load())
	}
}

// partialMapSource is a map-shaped source (no batch fill) whose one
// profile lacks the schema attribute.
type partialMapSource struct{}

func (partialMapSource) Attributes(string, time.Time) map[string]float64 {
	return map[string]float64{"unrelated": 1}
}

// TestPartialCoverageFailsClosedByName pins the kernel's coverage rule on
// both front doors and both fill shapes (whole-chunk batch fill, per-row
// loop): a row the source could not cover is never scored as zeros — it
// fails closed at full confidence, counts a score error, and the error
// names the attribute from the mask.
func TestPartialCoverageFailsClosedByName(t *testing.T) {
	store := newTestSource(t)
	store.Put("10.0.0.5", map[string]float64{"unrelated": 1}) // lacks "threat"
	sources := map[string]features.VectorSource{
		"batch_fill": store,
		"row_fill":   features.SourceFromMap(partialMapSource{}),
	}
	doors := map[string]func(*Framework) (Decision, error){
		"Decide": func(f *Framework) (Decision, error) {
			return f.Decide(RequestContext{IP: "10.0.0.5"})
		},
		"DecideBatch": func(f *Framework) (Decision, error) {
			out, err := f.DecideBatch([]RequestContext{{IP: "10.0.0.5"}}, nil)
			if err != nil {
				return Decision{}, err
			}
			return out[0], nil
		},
	}
	for srcName, src := range sources {
		for doorName, decide := range doors {
			t.Run(srcName+"/"+doorName, func(t *testing.T) {
				scorer := newVecScorer(t)
				shaped, err := policy.NewConfidenceShaped(policy.Policy2(), 5, 0)
				if err != nil {
					t.Fatal(err)
				}
				f := newTestFramework(t, WithScorer(scorer), WithSource(src), WithPolicy(shaped), WithFailClosedScore(9))
				dec, err := decide(f)
				if err != nil {
					t.Fatal(err)
				}
				if !errors.Is(dec.ScoreErr, features.ErrMissingAttr) || !strings.Contains(dec.ScoreErr.Error(), `"threat"`) {
					t.Errorf("ScoreErr = %v, want ErrMissingAttr naming \"threat\"", dec.ScoreErr)
				}
				if dec.Score != 9 || dec.Confidence != 1 {
					t.Errorf("score/confidence = %v/%v, want fail-closed 9 at confidence 1", dec.Score, dec.Confidence)
				}
				if want := policy.Policy2().Difficulty(9); dec.Difficulty != want || dec.Challenge.Difficulty != want {
					t.Errorf("difficulty = %d (challenge %d), want %d", dec.Difficulty, dec.Challenge.Difficulty, want)
				}
				if scorer.hits.Load() != 0 {
					t.Error("scorer ran on a partially covered row")
				}
				if got := f.Stats()["score_errors"]; got != 1 {
					t.Errorf("score_errors = %v, want 1", got)
				}
			})
		}
	}
}

// TestDecideConcurrent exercises the pooled vector scratch under
// parallelism (meaningful with -race).
func TestDecideConcurrent(t *testing.T) {
	scorer := newVecScorer(t)
	src := newTestSource(t)
	f, err := New(
		WithKey(testKey),
		WithScorer(scorer),
		WithPolicy(policy.Policy2()),
		WithSource(src),
		WithClock(func() time.Time { return time.Unix(1000, 0) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
