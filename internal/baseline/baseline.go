// Package baseline provides RateScorer, the kaPoW-style (Le, Dua, Feng
// 2012) behavioral comparator: it derives a client's reputation score from
// its recent request rate rather than from an AI model over traffic
// features. The control plane's built-in scorer `rate(saturation=…)`
// plugs it into the same core.Framework as the DAbR model, and
// HybridScorer (the spec combinator `hybrid(inner=…, saturation=…)`)
// blends it with a model.
package baseline

import (
	"fmt"
	"math"

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

// NewRateScorer validates and constructs a RateScorer. The saturation
// rate must be finite and positive: at +Inf or NaN every client would
// score 0.
func NewRateScorer(saturationRate float64) (RateScorer, error) {
	if !(saturationRate > 0) || math.IsInf(saturationRate, 1) {
		return RateScorer{}, fmt.Errorf("baseline: saturation rate must be finite and positive, got %v", saturationRate)
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

// HybridScorer is max(inner score, rate score): a model's static judgment
// blended with the client's live request rate, so a currently-flooding
// client keeps its behavioral price whatever the model thinks of it. It
// publishes its own schema — the inner scorer's attributes plus the
// tracker's live request rate — and carries verdicts through: when the
// rate score wins, the confidence is 1 (the evidence is directly observed
// behavior, not a model inference); otherwise the inner scorer's
// confidence passes through.
type HybridScorer struct {
	inner    features.VectorScorer
	verdict  features.VerdictScorer // nil: inner verdicts at confidence 1
	rate     RateScorer
	schema   *features.Schema
	innerLen int
	rateSlot int
}

var _ features.VerdictScorer = (*HybridScorer)(nil)

// NewHybridScorer blends inner with a RateScorer saturating at
// saturationRate requests per second.
func NewHybridScorer(inner features.VectorScorer, saturationRate float64) (*HybridScorer, error) {
	rs, err := NewRateScorer(saturationRate)
	if err != nil {
		return nil, err
	}
	is := inner.Schema()
	if is == nil {
		return nil, fmt.Errorf("baseline: hybrid inner scorer publishes no schema")
	}
	// The inner scorer may already consume the live request rate (the
	// redemption wrapper reads it as a gate); reuse its slot rather than
	// duplicating the attribute.
	schema, rateSlot := is, 0
	if j, ok := is.Index(features.AttrRequestRate); ok {
		rateSlot = j
	} else {
		extended, err := features.NewSchema(append(is.Names(), features.AttrRequestRate)...)
		if err != nil {
			return nil, fmt.Errorf("baseline: hybrid schema: %w", err)
		}
		schema, rateSlot = extended, is.Len()
	}
	h := &HybridScorer{inner: inner, rate: rs, schema: schema, innerLen: is.Len(), rateSlot: rateSlot}
	h.verdict, _ = inner.(features.VerdictScorer)
	return h, nil
}

// Schema implements features.VectorScorer.
func (h *HybridScorer) Schema() *features.Schema { return h.schema }

// ScoreVector implements features.VectorScorer. The rate slot is read
// before the inner scorer runs, because it uses its subvector as scratch.
func (h *HybridScorer) ScoreVector(v []float64) (float64, error) {
	if len(v) != h.schema.Len() {
		return 0, fmt.Errorf("baseline: vector has %d dims, hybrid scorer wants %d", len(v), h.schema.Len())
	}
	behavioral := h.rate.ScoreRate(v[h.rateSlot])
	static, err := h.inner.ScoreVector(v[:h.innerLen])
	if err != nil {
		return 0, err
	}
	return max(static, behavioral), nil
}

// VerdictVector implements features.VerdictScorer.
func (h *HybridScorer) VerdictVector(v []float64) (features.Verdict, error) {
	if len(v) != h.schema.Len() {
		return features.Verdict{}, fmt.Errorf("baseline: vector has %d dims, hybrid scorer wants %d", len(v), h.schema.Len())
	}
	behavioral := h.rate.ScoreRate(v[h.rateSlot])
	var ver features.Verdict
	var err error
	if h.verdict != nil {
		ver, err = h.verdict.VerdictVector(v[:h.innerLen])
	} else {
		ver.Confidence = 1
		ver.Score, err = h.inner.ScoreVector(v[:h.innerLen])
	}
	if err != nil {
		return features.Verdict{}, err
	}
	if behavioral >= ver.Score {
		// Observed behavior outranks the model: enforce at face value.
		return features.Verdict{Score: behavioral, Confidence: 1}, nil
	}
	return ver, nil
}
