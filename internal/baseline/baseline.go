// Package baseline provides RateScorer, the kaPoW-style (Le, Dua, Feng
// 2012) behavioral comparator: it derives a client's reputation score from
// its recent request rate rather than from an AI model over traffic
// features. powserver's spec scorer `rate(saturation=…)` and the sim's
// rate-scored defenses plug it into the same core.Framework as the DAbR
// model.
package baseline

import (
	"fmt"

	"aipow/internal/features"
	"aipow/internal/policy"
)

// rateSchema is RateScorer's layout: the tracker's live request rate.
var rateSchema = func() *features.Schema {
	s, err := features.NewSchema(features.AttrRequestRate)
	if err != nil {
		panic(err) // static name: only a bug can fail this
	}
	return s
}()

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
