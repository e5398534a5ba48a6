package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"aipow/internal/baseline"
	"aipow/internal/core"
	"aipow/internal/dataset"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
	"aipow/internal/reputation"
)

// defenseKey is the HMAC key every simulated defense signs with. Scenarios
// never cross keys, so a fixed one keeps reports free of key material.
var defenseKey = []byte("sim-scenario-hmac-key-32-bytes!!")

// Defense configures the framework a scenario defends with: the paper's
// pipeline assembled from a synthetic intelligence feed, a trained DAbR
// model, a live behavior tracker, and a registry policy.
type Defense struct {
	// Policy is the score→difficulty policy spec in registry syntax
	// (default "policy2"). Stick to deterministic policies: policy3 draws
	// from a shared PRNG per decision, which is order-dependent under the
	// engine's concurrency and would break report determinism.
	Policy string

	// MaxDifficulty caps what the issuer signs (default 22).
	MaxDifficulty int

	// Puzzle selects the puzzle backend in the puzzle package's spec
	// syntax, e.g. "balloon(space=8, time=1)" (empty: the default
	// hashcash backend). The engine prices every population's modeled
	// solve in the backend's cost units (attempts × the backend's
	// per-attempt hash cost, discounted by the population's Speedup
	// factor for that backend), so GPU-vs-phone asymmetry scenarios can
	// compare backends on the same traffic.
	Puzzle string

	// SaturationRate, when positive, blends a kaPoW-style behavioral
	// score into the model: the final score is the maximum of the static
	// DAbR score and 10·min(1, live_rate/SaturationRate). Zero leaves the
	// defense purely feed-driven (behavior-blind).
	SaturationRate float64

	// TrackerWindow and TrackerBuckets shape the behavior tracker's
	// sliding rate window (default 30 s across 10 buckets).
	TrackerWindow  time.Duration
	TrackerBuckets int

	// TTL is the challenge lifetime (default puzzle.DefaultTTL). The
	// engine also applies it to modeled verification, so slow solvers
	// time out identically in modeled and real-solve runs.
	TTL time.Duration

	// RealSolve switches the engine from modeled verification to real
	// nonce searches redeemed through Framework.Verify — the full
	// cryptographic path. Wall-clock cost is ~2^difficulty hashes per
	// request, so pair it with a low MaxDifficulty.
	RealSolve bool

	// Redeem wraps the static model in behavioral redemption
	// (reputation.Decay): verified solves earn a decaying attenuation of
	// the static score, so misscored benign clients work their way out of
	// the false-positive tail. The engine feeds modeled verifications into
	// the tracker's evidence state exactly as real Verify calls would.
	Redeem *RedeemDefense

	// DatasetSeed seeds feed generation, model training, and attribute
	// assignment (default: the scenario seed).
	DatasetSeed uint64

	// Adapt attaches a feedback controller to the defense — the closed
	// adaptive loop under test. The controller steps once per engine tick
	// at the tick boundary (a single-threaded point in the engine), so
	// adaptive runs stay byte-identical across reruns. Requires the
	// built-in Defense, not a custom Factory.
	Adapt *AdaptDefense

	// Events captures the defense event log into the scenario report:
	// every adapt escalation and de-escalation (with the tripping signal
	// reading), cluster membership change, and evidence flush stall is
	// recorded as a structured event, so scenarios can assert exact
	// defense event sequences. Off by default — existing reports stay
	// byte-identical unless a scenario opts in.
	Events bool
}

// AdaptDefense configures the scenario's feedback controller: the
// signal-plane shape plus the escalation ladder in the feedback rule
// grammar ("escalate(when=…, policy=…, hold=…)"). Escalation policies
// resolve against the built-in policy registry and are clamped to the
// defense's MaxDifficulty like the base policy; stick to deterministic
// policies (policy3 would break report determinism).
type AdaptDefense struct {
	// Capacity is the decision rate (decisions/s) treated as full load
	// for the "load" signal; 0 pins load to 0.
	Capacity float64

	// Hard marks challenges at or above this difficulty as "hard" for the
	// hard_solve_frac false-positive proxy (0 = 12).
	Hard int

	// Window is the signal window in engine ticks (0 = 10).
	Window int

	// Rules is the escalation ladder, in level order.
	Rules []string
}

// RedeemDefense configures the defense's behavioral-redemption wrapper.
// Zero fields take the reputation package's defaults; HalfLife zero takes
// the tracker's default evidence half-life.
type RedeemDefense struct {
	// HalfLife is the solve-credit decay half-life on the simulated clock.
	HalfLife time.Duration

	// MaxDrop is the largest score attenuation evidence can earn.
	MaxDrop float64

	// HalfCredit is the solve credit at which half of MaxDrop applies.
	HalfCredit float64
}

// withDefaults resolves zero fields.
func (d Defense) withDefaults(scenarioSeed uint64) Defense {
	if d.Policy == "" {
		d.Policy = "policy2"
	}
	if d.MaxDifficulty == 0 {
		d.MaxDifficulty = 22
	}
	if d.TrackerWindow == 0 {
		d.TrackerWindow = 30 * time.Second
	}
	if d.TrackerBuckets == 0 {
		d.TrackerBuckets = 10
	}
	if d.TTL == 0 {
		d.TTL = puzzle.DefaultTTL
	}
	if d.DatasetSeed == 0 {
		d.DatasetSeed = scenarioSeed
	}
	return d
}

// BuildDefense assembles the scenario's framework factory from its Defense
// config: generate the synthetic feed, train the model, register each
// population's addresses per its Feed profile, and wire tracker + store
// into a combined source, the production shape.
func BuildDefense(sc Scenario) FrameworkFactory {
	return func(now func() time.Time) (*core.Framework, error) {
		fw, _, err := buildDefenseNode(sc, now)
		return fw, err
	}
}

// buildDefenseNode is the per-node assembly the factory (and the engine's
// fleet mode, once per cluster node) builds on: identical seeds produce
// identical feeds, models, and stores, so every fleet node defends with
// the same trained pipeline over its own tracker. The extra options are
// appended last (the fleet mode passes its cluster exchange hook).
func buildDefenseNode(sc Scenario, now func() time.Time, extra ...core.Option) (*core.Framework, *features.Tracker, error) {
	d := sc.Defense.withDefaults(sc.Seed)

	cfg := dataset.DefaultConfig()
	cfg.Seed = d.DatasetSeed
	raw, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: generate feed: %w", err)
	}
	samples := make([]reputation.Sample, len(raw))
	var benign, malicious []dataset.Sample
	for i, s := range raw {
		samples[i] = reputation.Sample{Attrs: s.Attrs, Malicious: s.Malicious}
		if s.Malicious {
			malicious = append(malicious, s)
		} else {
			benign = append(benign, s)
		}
	}
	if len(benign) == 0 || len(malicious) == 0 {
		return nil, nil, fmt.Errorf("sim: feed is missing a class")
	}
	model, err := reputation.Train(samples, reputation.WithSeed(d.DatasetSeed))
	if err != nil {
		return nil, nil, fmt.Errorf("sim: train model: %w", err)
	}

	// Unknown addresses fall back to the median benign profile: the
	// feed has nothing on them, so static scoring sees an ordinary
	// client and only live behavior can raise suspicion — exactly the
	// blind spot rotating botnets aim for.
	store, err := features.NewMapStore(medianAttrs(benign))
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(mix(d.DatasetSeed, 0xFEED), 0xA551617))
	for pi := range sc.Populations {
		pool := benign
		switch sc.Populations[pi].Feed {
		case FeedMalicious:
			pool = malicious
		case FeedUnknown:
			continue
		}
		for _, addr := range sc.PopulationIPs(pi) {
			store.Put(addr, pool[rng.IntN(len(pool))].Attrs)
		}
	}

	// Capacity is sized so far above the address universe that no
	// shard's quota can overflow; per-shard LRU eviction would depend
	// on cross-worker interleaving and break determinism.
	trackerOpts := []features.TrackerOption{
		features.WithCapacity(sc.TotalIPs()*8 + 4096),
		features.WithWindow(d.TrackerWindow, d.TrackerBuckets),
	}
	if d.Redeem != nil && d.Redeem.HalfLife > 0 {
		trackerOpts = append(trackerOpts, features.WithEvidenceHalfLife(d.Redeem.HalfLife))
	}
	tracker, err := features.NewTracker(trackerOpts...)
	if err != nil {
		return nil, nil, err
	}
	combined, err := features.NewCombined(store, tracker)
	if err != nil {
		return nil, nil, err
	}

	// Scorer stack, innermost out: the static DAbR model, optionally
	// wrapped in behavioral redemption (so solve evidence attenuates
	// the *static* judgment only), optionally blended with the live
	// rate score (layered outside redemption, so a currently-flooding
	// client keeps its behavioral price regardless of earned credit).
	var static features.VectorScorer = model
	if d.Redeem != nil {
		var opts []reputation.DecayOption
		if d.Redeem.MaxDrop > 0 {
			opts = append(opts, reputation.WithMaxRedemption(d.Redeem.MaxDrop))
		}
		if d.Redeem.HalfCredit > 0 {
			opts = append(opts, reputation.WithHalfCredit(d.Redeem.HalfCredit))
		}
		decay, err := reputation.NewDecay(model, opts...)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: redemption wrapper: %w", err)
		}
		static = decay
	}
	scorer := static
	if d.SaturationRate > 0 {
		hybrid, err := newHybridScorer(static, d.SaturationRate)
		if err != nil {
			return nil, nil, err
		}
		scorer = hybrid
	}
	pol, err := policy.NewRegistry().New(d.Policy)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: policy %q: %w", d.Policy, err)
	}
	// Clamp to the issuer's cap: the issuer rejects (rather than
	// clamps) over-cap difficulties, and a worst-score client must
	// still get a challenge, not an error.
	pol, err = policy.NewClamp(pol, 1, d.MaxDifficulty)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: clamp policy: %w", err)
	}

	opts := []core.Option{
		core.WithKey(defenseKey),
		core.WithScorer(scorer),
	}
	if d.Puzzle != "" {
		backend, err := puzzle.ParseBackendSpec(d.Puzzle)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: puzzle backend: %w", err)
		}
		opts = append(opts, core.WithPuzzleBackend(backend))
	}
	opts = append(opts,
		core.WithPolicy(pol),
		core.WithSource(combined),
		core.WithTracker(tracker),
		core.WithClock(now),
		core.WithMaxDifficulty(d.MaxDifficulty),
		core.WithTTL(d.TTL),
	)
	if !d.RealSolve {
		// Verification is modeled; the replay cache would only grow.
		opts = append(opts, core.WithReplayCacheSize(0))
	}
	opts = append(opts, extra...)
	fw, err := core.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	return fw, tracker, nil
}

// medianAttrs computes the per-attribute median over samples — the
// fallback profile for feed-unknown addresses.
func medianAttrs(samples []dataset.Sample) map[string]float64 {
	out := make(map[string]float64, len(samples[0].Attrs))
	for name := range samples[0].Attrs {
		vals := make([]float64, 0, len(samples))
		for _, s := range samples {
			vals = append(vals, s.Attrs[name])
		}
		// Insertion sort: attribute counts are small and this avoids
		// pulling in sort for a setup-time helper.
		for i := 1; i < len(vals); i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		out[name] = vals[len(vals)/2]
	}
	return out
}

// hybridScorer is the defense's AI seam when behavioral blending is on:
// max(static score, kaPoW-style rate score). It publishes its own schema
// — the inner scorer's attributes plus the tracker's live request rate —
// and carries verdicts through: when the rate score wins, the confidence is 1 (the evidence is
// directly observed behavior, not a model inference); otherwise the inner
// scorer's confidence passes through.
type hybridScorer struct {
	inner    features.VectorScorer
	verdict  features.VerdictScorer // nil: inner verdicts at confidence 1
	rate     baseline.RateScorer
	schema   *features.Schema
	innerLen int
	rateSlot int
}

func newHybridScorer(inner features.VectorScorer, saturation float64) (*hybridScorer, error) {
	rs, err := baseline.NewRateScorer(saturation)
	if err != nil {
		return nil, err
	}
	is := inner.Schema()
	if is == nil {
		return nil, fmt.Errorf("sim: inner scorer publishes no schema")
	}
	// The inner scorer may already consume the live request rate (the
	// redemption wrapper reads it as a gate); reuse its slot rather than
	// duplicating the attribute.
	schema, rateSlot := is, 0
	if j, ok := is.Index(features.AttrRequestRate); ok {
		rateSlot = j
	} else {
		names := append(is.Names(), features.AttrRequestRate)
		extended, err := features.NewSchema(names...)
		if err != nil {
			return nil, fmt.Errorf("sim: hybrid schema: %w", err)
		}
		schema, rateSlot = extended, is.Len()
	}
	h := &hybridScorer{
		inner:    inner,
		rate:     rs,
		schema:   schema,
		innerLen: is.Len(),
		rateSlot: rateSlot,
	}
	h.verdict, _ = inner.(features.VerdictScorer)
	return h, nil
}

// Schema implements features.VectorScorer.
func (h *hybridScorer) Schema() *features.Schema { return h.schema }

// ScoreVector implements features.VectorScorer. The rate slot is read
// before the inner scorer runs, because it uses its subvector as scratch.
func (h *hybridScorer) ScoreVector(v []float64) (float64, error) {
	if len(v) != h.schema.Len() {
		return 0, fmt.Errorf("sim: vector has %d dims, hybrid scorer wants %d", len(v), h.schema.Len())
	}
	behavioral := h.rate.ScoreRate(v[h.rateSlot])
	static, err := h.inner.ScoreVector(v[:h.innerLen])
	if err != nil {
		return 0, err
	}
	return max(static, behavioral), nil
}

// VerdictVector implements features.VerdictScorer.
func (h *hybridScorer) VerdictVector(v []float64) (features.Verdict, error) {
	if len(v) != h.schema.Len() {
		return features.Verdict{}, fmt.Errorf("sim: vector has %d dims, hybrid scorer wants %d", len(v), h.schema.Len())
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

var _ features.VerdictScorer = (*hybridScorer)(nil)
