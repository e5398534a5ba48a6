// Package baseline provides the comparators experiment E4 measures the
// framework against:
//
//   - NoPoW: a pass-through server with no puzzles at all — the undefended
//     baseline whose collapse under flood motivates the paper.
//   - FixedPoW: classic one-difficulty-for-everyone PoW — the paper's
//     "current state of the art is unable to differentiate between
//     trustworthy and untrustworthy connections".
//   - KaPoW: a kaPoW-style (Le, Dua, Feng 2012) behavioral comparator that
//     derives difficulty from each client's recent request rate rather
//     than an AI model over traffic features.
//
// All three are expressed as configurations of the same core.Framework,
// which is itself the modularity point the paper claims.
package baseline

import (
	"fmt"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
)

// The scorers' layouts: trustAllScorer reads nothing, RateScorer reads the
// tracker's live request rate.
var (
	noAttrs    = mustSchema()
	rateSchema = mustSchema(features.AttrRequestRate)
)

func mustSchema(names ...string) *features.Schema {
	s, err := features.NewSchema(names...)
	if err != nil {
		panic(err) // static names: only a bug can fail this
	}
	return s
}

// trustAllScorer scores everything 0: used by NoPoW (with full bypass) and
// FixedPoW (where the policy ignores the score anyway).
type trustAllScorer struct{}

func (trustAllScorer) Schema() *features.Schema               { return noAttrs }
func (trustAllScorer) ScoreVector([]float64) (float64, error) { return 0, nil }

// RateScorer maps a client's live request rate to a reputation score:
// score = 10 · min(1, rate/SaturationRate). It is the kaPoW-style
// behavioral "model": no training, no traffic features beyond arrival
// counts.
type RateScorer struct {
	// SaturationRate is the requests-per-second at which the score pegs
	// at 10.
	SaturationRate float64
}

var _ features.VectorScorer = RateScorer{}

// NewRateScorer validates and constructs a RateScorer.
func NewRateScorer(saturationRate float64) (RateScorer, error) {
	if saturationRate <= 0 {
		return RateScorer{}, fmt.Errorf("baseline: saturation rate must be positive, got %v", saturationRate)
	}
	return RateScorer{SaturationRate: saturationRate}, nil
}

// Schema implements features.VectorScorer: one slot, the live request rate
// (features.AttrRequestRate) — so the source must carry a Tracker.
func (RateScorer) Schema() *features.Schema { return rateSchema }

// ScoreVector implements features.VectorScorer over the rate slot.
func (r RateScorer) ScoreVector(v []float64) (float64, error) {
	if len(v) != 1 {
		return 0, fmt.Errorf("baseline: vector has %d dims, rate scorer wants 1", len(v))
	}
	return r.ScoreRate(v[0]), nil
}

// ScoreRate maps a request rate (requests/s) to the score.
func (r RateScorer) ScoreRate(rate float64) float64 {
	frac := rate / r.SaturationRate
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return policy.MaxScore * frac
}

// NewNoPoW builds the undefended baseline: every request bypasses the
// puzzle entirely.
func NewNoPoW(key []byte, source features.VectorSource, opts ...core.Option) (*core.Framework, error) {
	base := []core.Option{
		core.WithKey(key),
		core.WithScorer(trustAllScorer{}),
		core.WithPolicy(policy.Policy1()),
		core.WithSource(source),
		core.WithBypassBelow(policy.MaxScore + 1), // everything bypasses
	}
	return core.New(append(base, opts...)...)
}

// NewFixedPoW builds the classic non-adaptive baseline: every client gets
// difficulty d regardless of reputation.
func NewFixedPoW(key []byte, source features.VectorSource, d int, opts ...core.Option) (*core.Framework, error) {
	fixed, err := policy.NewFixed(d)
	if err != nil {
		return nil, err
	}
	base := []core.Option{
		core.WithKey(key),
		core.WithScorer(trustAllScorer{}),
		core.WithPolicy(fixed),
		core.WithSource(source),
	}
	return core.New(append(base, opts...)...)
}

// NewKaPoW builds the behavioral comparator: score is the client's recent
// request rate (saturating at saturationRate req/s), mapped through pol —
// pass the same policy as the AI framework for an apples-to-apples
// comparison of the *detection* mechanisms. The tracker must be wired into
// the source (features.NewCombined) so the rate attribute is present.
func NewKaPoW(key []byte, source features.VectorSource, tracker *features.Tracker,
	saturationRate float64, pol policy.Policy, opts ...core.Option) (*core.Framework, error) {
	scorer, err := NewRateScorer(saturationRate)
	if err != nil {
		return nil, err
	}
	if tracker == nil {
		return nil, fmt.Errorf("baseline: kaPoW requires a tracker")
	}
	if pol == nil {
		pol = policy.Policy1()
	}
	base := []core.Option{
		core.WithKey(key),
		core.WithScorer(scorer),
		core.WithPolicy(pol),
		core.WithSource(source),
		core.WithTracker(tracker),
	}
	return core.New(append(base, opts...)...)
}
