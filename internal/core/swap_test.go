package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// errScorer always fails, driving the fail-closed path.
type errScorer struct{}

func (errScorer) Schema() *features.Schema { return mapScorer.Schema() }
func (errScorer) ScoreVector([]float64) (float64, error) {
	return 0, errors.New("model offline")
}

func TestSwapPolicyChangesDifficulty(t *testing.T) {
	f := newTestFramework(t)
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	before := dec.Difficulty // policy2: score+5 = 15

	pol, err := policy.NewFixed(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapPolicy(pol); err != nil {
		t.Fatalf("SwapPolicy: %v", err)
	}
	dec, err = f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Difficulty != 3 {
		t.Fatalf("post-swap difficulty = %d, want 3 (pre-swap %d)", dec.Difficulty, before)
	}
	if got := f.PolicyName(); got != "fixed(3)" {
		t.Fatalf("PolicyName() = %q after swap", got)
	}
	if f.Stats()["swaps"] != 1 {
		t.Fatalf("swaps counter = %v, want 1", f.Stats()["swaps"])
	}
}

func TestSwapPreservesIssuedChallenges(t *testing.T) {
	// A challenge issued before a swap must verify after it: the
	// issuer/verifier (and key) are shared long-lived state.
	f := newTestFramework(t)
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewFixed(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Swap(SetPolicy(pol), SetBypassBelow(-1)); err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, "10.0.0.1"); err != nil {
		t.Fatalf("pre-swap challenge rejected after swap: %v", err)
	}
}

func TestSwapValidation(t *testing.T) {
	f := newTestFramework(t)
	if err := f.Swap(); err == nil {
		t.Error("empty swap accepted")
	}
	if err := f.SwapPolicy(nil); err == nil {
		t.Error("nil policy accepted")
	}
	if err := f.SwapScorer(nil); err == nil {
		t.Error("nil scorer accepted")
	}
	if err := f.Swap(SetFailClosedScore(11)); err == nil {
		t.Error("out-of-range fail-closed score accepted")
	}
	// Failed swaps leave the configuration untouched.
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Difficulty != 15 {
		t.Fatalf("difficulty = %d after rejected swaps, want policy2's 15", dec.Difficulty)
	}
	if f.Stats()["swaps"] != 0 {
		t.Fatalf("rejected swaps counted: %v", f.Stats()["swaps"])
	}
}

func TestSwapScorerRebuildsSchemaWiring(t *testing.T) {
	// Swapping scorers must rebuild the snapshot (schema, scratch pool)
	// against each scorer's own layout, and refuse a scorer without one.
	vs := newVecScorer(t)
	f := newTestFramework(t, WithScorer(vs))
	if _, err := f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	wide, err := features.NewMapScorer(func(attrs map[string]float64) (float64, error) {
		return attrs["threat"] / 2, nil
	}, "threat", features.AttrRequestRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SwapScorer(wide); err != nil {
		t.Fatal(err)
	}
	// The test source has no tracker: the wider schema is short one slot.
	dec, err := f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dec.ScoreErr, features.ErrMissingAttr) || dec.Score != policy.MaxScore {
		t.Fatalf("wider schema over the old source: score %v err %v, want fail-closed", dec.Score, dec.ScoreErr)
	}
	if err := f.SwapScorer(&vecScorer{}); err == nil {
		t.Fatal("scorer without a schema accepted")
	}
	vs2 := newVecScorer(t)
	if err := f.SwapScorer(vs2); err != nil {
		t.Fatal(err)
	}
	dec, err = f.Decide(RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score != 10 || dec.ScoreErr != nil || vs.hits.Load() != 1 || vs2.hits.Load() != 1 {
		t.Fatalf("swapped-in scorer: score %v err %v hits %d/%d, want 10, nil, 1/1",
			dec.Score, dec.ScoreErr, vs.hits.Load(), vs2.hits.Load())
	}
}

// TestSwapHammer races a continuous stream of Decide/Verify traffic
// against a tight Swap loop (policy, scorer, and thresholds all churning)
// and asserts no torn reads: every decision must be internally consistent
// with exactly one of the two configurations, and fail-closed semantics
// must hold across every swap. Run under -race this is the hot-swap
// correctness gate.
func TestSwapHammer(t *testing.T) {
	f := newTestFramework(t)
	polLow, err := policy.NewFixed(1)
	if err != nil {
		t.Fatal(err)
	}
	polHigh, err := policy.NewFixed(9)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}

	// Start in config A so every decision the workers see comes from one
	// of the two hammer configurations.
	if err := f.Swap(SetScorer(mapScorer), SetPolicy(polLow), SetFailClosedScore(10), SetBypassBelow(0.5)); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var decisions atomic.Uint64

	// Swapper: flips between two consistent configurations as fast as it
	// can. Config A: working scorer + d=1. Config B: failing scorer +
	// d=9 + fail-closed 10. Either is valid; a torn mix (failing scorer
	// with A's low fail-closed bypassing) would trip the checks below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = f.Swap(SetScorer(errScorer{}), SetPolicy(polHigh), SetFailClosedScore(10), SetBypassBelow(-1))
			} else {
				err = f.Swap(SetScorer(mapScorer), SetPolicy(polLow), SetFailClosedScore(10), SetBypassBelow(0.5))
			}
			if err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := "10.0.0.9"
			if w%2 == 0 {
				ip = "10.0.0.1"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				dec, err := f.Decide(RequestContext{IP: ip})
				if err != nil {
					t.Errorf("decide: %v", err)
					return
				}
				decisions.Add(1)
				switch {
				case dec.ScoreErr != nil:
					// Config B: must have failed closed to score 10 and
					// must never bypass.
					if dec.Score != 10 || dec.Bypassed {
						t.Errorf("torn read: scorer error with score=%v bypassed=%v", dec.Score, dec.Bypassed)
						return
					}
					if dec.Difficulty != 9 {
						t.Errorf("torn read: fail-closed decision with difficulty %d, want config B's 9", dec.Difficulty)
						return
					}
				case dec.Bypassed:
					// Config A bypasses only genuinely low scores.
					if dec.Score >= 0.5 {
						t.Errorf("torn read: bypass at score %v", dec.Score)
						return
					}
				default:
					if dec.Difficulty != 1 && dec.Difficulty != 9 {
						t.Errorf("torn read: difficulty %d from neither config", dec.Difficulty)
						return
					}
				}
				// Verification rides the shared verifier: a swap must
				// never invalidate it. (Replay cache is per-seed, so
				// re-verifying the same solution is rejected — only
				// transport errors matter here.)
				if err := f.Verify(sol, "10.0.0.1"); err != nil && !errors.Is(err, puzzle.ErrVerify) {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if decisions.Load() == 0 {
		t.Fatal("hammer made no decisions")
	}
	if f.Stats()["swaps"] == 0 {
		t.Fatal("hammer performed no swaps")
	}
}
