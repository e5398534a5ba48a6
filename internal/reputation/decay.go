package reputation

import (
	"fmt"
	"math"
	"sync/atomic"

	"aipow/internal/features"
)

// Decay's redemption defaults (WithMaxRedemption and WithHalfCredit
// override the first two) and its fixed gate tolerances.
const (
	// DefaultMaxRedemption is the largest score attenuation sustained
	// solve evidence can earn. 6 points moves a tail-dwelling false
	// positive (score 8–9, difficulty 13–15 under Policy 2) down to the
	// ordinary-client band (score 2–3, difficulty 7–8) — and bounds the
	// discount any paying attacker can buy.
	DefaultMaxRedemption = 6.0

	// DefaultHalfCredit is the solve credit at which half the maximum
	// redemption applies (the saturation constant). 26 ≈ two solved
	// difficulty-13 challenges: redemption ramps over the first few
	// expensive solves instead of flipping on the first.
	DefaultHalfCredit = 26.0

	// DefaultFailRatioTolerance is the lifetime 4xx-failure ratio at
	// which redemption is fully cancelled. Probing clients (credential
	// stuffing, path scanning) fail a large fraction of their requests;
	// their solve evidence must not buy them cheaper puzzles. The gate
	// reads the *lifetime* ratio (features.AttrFailRatioTotal), not the
	// windowed one: a slow prober fits whole clean spells inside a short
	// window, but its lifetime ratio converges within a few requests.
	DefaultFailRatioTolerance = 0.25

	// DefaultMaxFailStreak is the consecutive failed-verification count
	// at which redemption is cancelled: forged or replayed solutions are
	// direct protocol abuse.
	DefaultMaxFailStreak = 3

	// DefaultRateTolerance is the live request rate (requests/s) at which
	// redemption is fully cancelled. This gate is what keeps redemption
	// from being farmable: a flooding client earns solve credit *faster*
	// than a legitimate one (it solves more puzzles), so credit volume
	// alone would hand the biggest discount to the busiest attacker.
	// Tying redemption to a modest live rate restricts it to clients
	// whose behavior is unremarkable — the misscored-benign shape —
	// while volume-priced suspicion stays with the rate scorer.
	DefaultRateTolerance = 1.0

	// DefaultInterArrivalTolerance is the typical request gap
	// (milliseconds, EWMA) at which redemption is fully open; tighter
	// gaps close it linearly. The windowed rate estimate dilutes across
	// pulse gaps — an on-off attacker can keep it under any tolerance —
	// but the per-request inter-arrival EWMA converges within a few
	// requests of a burst starting, so it closes the gate exactly when
	// the rate window is still blind.
	DefaultInterArrivalTolerance = 2000.0
)

// Decay wraps a scorer with behavioral redemption: an IP that keeps
// solving and redeeming the puzzles it is handed — while staying otherwise
// clean — earns an attenuation of its effective score, so a misscored
// legitimate client works its way out of the false-positive tail instead
// of paying the worst-case difficulty for as long as the feed misjudges
// it. The evidence is the tracker's half-life-decayed solve credit
// (features.AttrSolveCredit, written by Framework.Verify), so redemption
// is deterministic and clock-injected: stop solving for a half-life and
// half the earned attenuation is gone.
//
// Redemption is deliberately *evidence*-priced, not trust-priced: an
// attacker can buy the same attenuation, but only by actually paying the
// full tail difficulty first and continuously (the credit decays), while
// the gates cancel redemption for clients showing abuse signals — a
// failed-verification streak (forged solutions) or a high live failure
// ratio (probing) — and live rate-based suspicion is layered *outside*
// this wrapper, so a currently-flooding client keeps its behavioral price
// regardless of credit.
//
// The attenuation is
//
//	drop = MaxRedemption × credit/(credit+HalfCredit) × cleanliness
//
// with cleanliness the most restrictive of the behavioral gates: it falls
// linearly to 0 as the lifetime failure ratio approaches
// DefaultFailRatioTolerance or the live request rate approaches
// DefaultRateTolerance, and is 0 while the verification fail streak is at
// or beyond DefaultMaxFailStreak.
//
// Decay publishes the inner scorer's schema extended with the evidence
// attributes, implements features.VerdictScorer (confidence passes through
// from the inner scorer), and is safe for concurrent use if its inner
// scorer is.
type Decay struct {
	vec     features.VectorScorer  // inner scorer
	verdict features.VerdictScorer // nil: inner verdicts at confidence 1

	schema    *features.Schema
	innerLen  int
	credSlot  int
	failSlot  int // verification fail streak
	ratioSlot int // lifetime 4xx failure ratio
	rateSlot  int // live request rate
	iaSlot    int // live inter-arrival EWMA (ms)

	maxDrop    float64
	halfCredit float64

	// memo caches the inner scorer's verdicts keyed on the raw inner
	// subvector. Scorers are pure (same vector → same verdict), so the
	// cache is semantically invisible — it exists because the inner
	// verdict (normalization plus two nearest-centroid passes) is the
	// expensive half of a redemption-wrapped Decide, while the evidence
	// slots that actually change between a client's requests only feed
	// the cheap attenuation arithmetic below. Steady-state scoring of a
	// client whose feed attributes are unchanged therefore skips the
	// model entirely. Nil when the inner vector is too wide to key.
	memo *innerMemo
}

// Inner-verdict memo geometry: a direct-mapped, power-of-two slot table of
// immutable entries swapped in with atomic pointers (lock-free, race-free;
// a lost racing store just means one extra recompute). 256 slots cover a
// serving shard's hot client set; collisions only cost the memoized
// speedup, never correctness.
const (
	memoSlots   = 256
	memoMaxDims = 16
)

// memoEntry is one immutable cached verdict with its full key.
type memoEntry struct {
	n   int
	vec [memoMaxDims]float64
	ver features.Verdict
}

// innerMemo is the slot table. The zero value is ready to use.
type innerMemo struct {
	slots [memoSlots]atomic.Pointer[memoEntry]
}

// slotFor hashes the raw vector (FNV-1a over the float bit patterns) to a
// slot. NaN keys hash fine and can never match on compare (NaN != NaN), so
// they degrade to always-recompute instead of poisoning a slot.
func (m *innerMemo) slotFor(v []float64) *atomic.Pointer[memoEntry] {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return &m.slots[(uint32(h>>32)^uint32(h))&(memoSlots-1)]
}

// lookup returns the cached verdict for v, and the slot to fill on a miss.
func (m *innerMemo) lookup(v []float64) (features.Verdict, *atomic.Pointer[memoEntry], bool) {
	slot := m.slotFor(v)
	e := slot.Load()
	if e == nil || e.n != len(v) {
		return features.Verdict{}, slot, false
	}
	for i, x := range v {
		if e.vec[i] != x {
			return features.Verdict{}, slot, false
		}
	}
	return e.ver, slot, true
}

var _ features.VerdictScorer = (*Decay)(nil)

// Gate slopes: each soft-knee gate clamp(2 - 2·x/tol) / clamp(2·x/tol - 1)
// reduces to one multiply-add on the hot path instead of a divide and the
// knee-function call.
const (
	failK = 2 / DefaultFailRatioTolerance
	rateK = 2 / DefaultRateTolerance
	iaK   = 2 / DefaultInterArrivalTolerance
)

// DecayOption customizes NewDecay.
type DecayOption func(*Decay)

// WithMaxRedemption sets the largest score attenuation evidence can earn.
func WithMaxRedemption(drop float64) DecayOption {
	return func(d *Decay) { d.maxDrop = drop }
}

// WithHalfCredit sets the solve credit at which half the maximum
// redemption applies.
func WithHalfCredit(credit float64) DecayOption {
	return func(d *Decay) { d.halfCredit = credit }
}

// NewDecay wraps inner with behavioral redemption. The inner scorer must
// publish a schema: redemption reads the tracker's evidence attributes
// through slots appended to it.
func NewDecay(inner features.VectorScorer, opts ...DecayOption) (*Decay, error) {
	if inner == nil {
		return nil, fmt.Errorf("reputation: decay requires an inner scorer")
	}
	is := inner.Schema()
	if is == nil {
		return nil, fmt.Errorf("reputation: decay inner scorer publishes no schema")
	}
	names := append(is.Names(),
		features.AttrSolveCredit, features.AttrFailStreak, features.AttrFailRatioTotal,
		features.AttrRequestRate, features.AttrInterArrival)
	schema, err := features.NewSchema(names...)
	if err != nil {
		return nil, fmt.Errorf("reputation: decay schema: %w", err)
	}
	d := &Decay{
		vec:        inner,
		schema:     schema,
		innerLen:   is.Len(),
		credSlot:   is.Len(),
		failSlot:   is.Len() + 1,
		ratioSlot:  is.Len() + 2,
		rateSlot:   is.Len() + 3,
		iaSlot:     is.Len() + 4,
		maxDrop:    DefaultMaxRedemption,
		halfCredit: DefaultHalfCredit,
	}
	d.verdict, _ = inner.(features.VerdictScorer)
	for _, opt := range opts {
		opt(d)
	}
	if d.maxDrop < 0 || d.maxDrop > MaxScore {
		return nil, fmt.Errorf("reputation: max redemption %v outside [0, %v]", d.maxDrop, MaxScore)
	}
	if d.halfCredit <= 0 {
		return nil, fmt.Errorf("reputation: half credit must be positive, got %v", d.halfCredit)
	}
	if d.innerLen <= memoMaxDims {
		d.memo = &innerMemo{}
	}
	return d, nil
}

// redemption computes the score attenuation for the given evidence. The
// cleanliness weight is the most restrictive of the behavioral gates,
// each a soft knee: fully open while the signal is clearly inside its
// tolerance, fading to zero at the tolerance. The knee matters — a
// linear ramp from zero would hand every fast-but-solving attacker a
// *partial* discount, which across a whole botnet is a real price cut;
// the knee gives clients nothing until their behavior is unambiguously
// modest.
func (d *Decay) redemption(credit, failStreak, failRatio, rate, interArrival float64) float64 {
	if credit <= 0 || failStreak >= DefaultMaxFailStreak {
		return 0
	}
	// Fail ratio and rate: open at or below half the tolerance, closed at
	// the tolerance. Inter-arrival: open at or above the tolerance,
	// closed at or below half of it. Each gate is the precomputed-slope
	// form of knee(·): clamp to [0, 1] of a single multiply-add.
	clean := 2 - failRatio*failK
	if quiet := 2 - rate*rateK; quiet < clean {
		clean = quiet
	}
	if spaced := interArrival*iaK - 1; spaced < clean {
		clean = spaced
	}
	if clean <= 0 {
		return 0
	}
	if clean > 1 {
		clean = 1
	}
	return d.maxDrop * credit / (credit + d.halfCredit) * clean
}

// apply attenuates a verdict's score by the evidence-earned redemption.
func (d *Decay) apply(ver features.Verdict, credit, failStreak, failRatio, rate, interArrival float64) features.Verdict {
	ver.Score -= d.redemption(credit, failStreak, failRatio, rate, interArrival)
	if ver.Score < 0 {
		ver.Score = 0
	}
	return ver
}

// Schema implements features.VectorScorer: the inner schema extended with
// the evidence attributes.
func (d *Decay) Schema() *features.Schema { return d.schema }

// ScoreVector implements features.VectorScorer. The evidence slots are
// read before the inner scorer runs (it may use its subvector as scratch).
func (d *Decay) ScoreVector(v []float64) (float64, error) {
	ver, err := d.VerdictVector(v)
	if err != nil {
		return 0, err
	}
	return ver.Score, nil
}

// VerdictVector implements features.VerdictScorer: the inner verdict
// (confidence 1 when the inner scorer has no verdict path) with the
// redeemed score.
func (d *Decay) VerdictVector(v []float64) (features.Verdict, error) {
	if len(v) != d.schema.Len() {
		return features.Verdict{}, fmt.Errorf("reputation: vector has %d dims, decay wants %d", len(v), d.schema.Len())
	}
	credit, failStreak, failRatio := v[d.credSlot], v[d.failSlot], v[d.ratioSlot]
	rate, interArrival := v[d.rateSlot], v[d.iaSlot]
	ver, err := d.innerVerdict(v[:d.innerLen])
	if err != nil {
		return features.Verdict{}, err
	}
	return d.apply(ver, credit, failStreak, failRatio, rate, interArrival), nil
}

// innerVerdict scores the inner subvector through the memo: a hit skips
// the model, a miss snapshots the raw key (the inner scorer uses its
// vector as scratch) before computing and publishing the entry. Errors are
// never cached.
func (d *Decay) innerVerdict(v []float64) (features.Verdict, error) {
	var slot *atomic.Pointer[memoEntry]
	if d.memo != nil {
		var ver features.Verdict
		var ok bool
		if ver, slot, ok = d.memo.lookup(v); ok {
			return ver, nil
		}
	}
	var e *memoEntry
	if slot != nil {
		e = &memoEntry{n: len(v)}
		copy(e.vec[:], v)
	}
	var ver features.Verdict
	var err error
	if d.verdict != nil {
		ver, err = d.verdict.VerdictVector(v)
	} else {
		ver.Confidence = 1
		ver.Score, err = d.vec.ScoreVector(v)
	}
	if err != nil {
		return features.Verdict{}, err
	}
	if slot != nil {
		e.ver = ver
		slot.Store(e)
	}
	return ver, nil
}
