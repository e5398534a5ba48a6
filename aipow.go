package aipow

import (
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/sim"
)

// Framework is the assembled scoring → policy → puzzle pipeline.
// See core.Framework for method documentation: Decide issues challenges,
// Verify checks solutions, Observe feeds behavioral tracking.
type Framework = core.Framework

// RequestContext identifies one incoming request for Decide.
type RequestContext = core.RequestContext

// Decision reports what the pipeline decided for a request: the score the
// AI model produced, the difficulty the policy assigned, and the issued
// challenge.
type Decision = core.Decision

// Scorer is the AI-model seam: publish an AttributeSchema and map vectors
// laid out by it to a reputation score in [0, 10], where higher means less
// trustworthy. ReputationModel and RedemptionScorer implement it; wrap a
// map-shaped scoring function with NewMapScorer.
type Scorer = features.VectorScorer

// Option configures New.
type Option = core.Option

// New assembles a Framework from its components. WithKey, WithScorer,
// WithPolicy and WithSource are required.
func New(opts ...Option) (*Framework, error) { return core.New(opts...) }

// WithKey sets the HMAC key (≥ 16 bytes) shared by issuer and verifier.
func WithKey(key []byte) Option { return core.WithKey(key) }

// WithScorer sets the AI model.
func WithScorer(s Scorer) Option { return core.WithScorer(s) }

// WithPolicy sets the score→difficulty policy.
func WithPolicy(p Policy) Option { return core.WithPolicy(p) }

// WithSource sets the per-IP attribute source.
func WithSource(s AttributeSource) Option { return core.WithSource(s) }

// WithTracker attaches a live behavior tracker (see NewTracker).
func WithTracker(t *Tracker) Option { return core.WithTracker(t) }

// WithClock injects a time source; defaults to time.Now.
func WithClock(now func() time.Time) Option { return core.WithClock(now) }

// SimulatedClock is a manually-advanced time source for driving a
// Framework in simulated time: wire it with WithClock(clock.Now) and every
// time-dependent component — challenge TTLs, tracker windows, replay
// sweeps — follows Advance/Set instead of the wall clock. Reads are a
// single atomic load, so the clock can sit on a concurrently-driven
// serving path. The adversarial scenario engine (internal/sim, surfaced by
// cmd/attacksim) runs entire attack campaigns on one.
type SimulatedClock = sim.Clock

// NewSimulatedClock returns a simulated clock reading start.
func NewSimulatedClock(start time.Time) *SimulatedClock { return sim.NewClock(start) }

// WithTTL sets how long issued challenges stay redeemable.
func WithTTL(ttl time.Duration) Option { return core.WithTTL(ttl) }

// WithMaxDifficulty caps the difficulty the issuer will sign.
func WithMaxDifficulty(d int) Option { return core.WithMaxDifficulty(d) }

// WithPuzzleBackend selects the framework's puzzle backend — see
// Hashcash, NewHashcash, NewBalloon, ParseBackendSpec. The default is
// hashcash with the classic Version1 wire format; the balloon backend
// issues memory-hard Version2 challenges. The issuer and verifier are
// pinned to the same backend, so solutions never verify across backends.
func WithPuzzleBackend(b Backend) Option { return core.WithPuzzleBackend(b) }

// WithReplayCacheSize bounds the single-use challenge cache.
func WithReplayCacheSize(n int) Option { return core.WithReplayCacheSize(n) }

// WithFailClosedScore sets the score assumed when the scorer errors
// (default 10 — maximally suspicious).
func WithFailClosedScore(s float64) Option { return core.WithFailClosedScore(s) }

// WithBypassBelow lets requests scoring under the threshold skip the
// puzzle entirely (disabled by default; the paper always issues one).
func WithBypassBelow(threshold float64) Option { return core.WithBypassBelow(threshold) }

// WithEvidenceBuffer routes the framework's tracker writes (Observe,
// Verify's evidence, RecordVerifyEvidence) through buffered per-shard
// write-back: the hot path appends a timestamped event and a background
// loop folds the buffers into the tracker every interval, with a full
// buffer flushing itself inline at size events. Requires WithTracker;
// callers must Close the framework to stop the flush loop. Pair with
// WithSummaryStaleness for the full low-latency serving configuration.
func WithEvidenceBuffer(size int, interval time.Duration) Option {
	return core.WithEvidenceBuffer(size, interval)
}

// AttributeSource fills the scorer's attribute vector for an IP, reporting
// which slots it covered. MapStore, Tracker and combined sources implement
// it; wrap a map-shaped lookup with SourceFromMap.
type AttributeSource = features.VectorSource

// AttributeSchema is an immutable, interned attribute layout: attribute
// names pinned to vector slots. Scorers publish one; sources fill flat
// []float64 vectors laid out by it, which is what lets Decide run without
// allocating per request.
type AttributeSchema = features.Schema

// NewAttributeSchema interns the given attribute names, in order.
func NewAttributeSchema(names ...string) (*AttributeSchema, error) {
	return features.NewSchema(names...)
}

// NewMapScorer adapts a map-shaped scoring function to Scorer. attrs
// declares the attribute names score reads; they become the scorer's
// schema, so a client whose source lacks one fails closed by name. The
// adapter builds one map per scored request — the price of the map shape,
// paid at the edge.
func NewMapScorer(score func(attrs map[string]float64) (float64, error), attrs ...string) (Scorer, error) {
	return features.NewMapScorer(score, attrs...)
}

// MapSource is the map-shaped input of SourceFromMap.
type MapSource = features.MapSource

// SourceFromMap adapts a source that describes clients as attribute maps
// to AttributeSource.
func SourceFromMap(src MapSource) AttributeSource { return features.SourceFromMap(src) }

// ScoreAttributes scores one attribute map through s's schema — the
// offline entry point (evaluation, spot checks) to the scoring the serving
// path runs. A schema attribute absent from attrs is an error naming it.
func ScoreAttributes(s Scorer, attrs map[string]float64) (float64, error) {
	return features.ScoreAttrs(s, attrs)
}

// Verdict is a calibrated scoring outcome: the reputation score plus the
// scorer's confidence in it, in [0, 1].
type Verdict = features.Verdict

// VerdictScorer is the optional confidence-carrying form of Scorer.
// Scorers that implement it (the reputation model and the redemption
// wrapper) report calibrated verdicts; the framework consults it only
// under confidence-aware policies (NewConfidenceShapedPolicy).
type VerdictScorer = features.VerdictScorer

// MapStore is a static attribute source (a feed snapshot) with a fallback
// profile for unknown IPs.
type MapStore = features.MapStore

// NewMapStore builds a MapStore with the given fallback profile.
func NewMapStore(fallback map[string]float64) (*MapStore, error) {
	return features.NewMapStore(fallback)
}

// Tracker maintains bounded per-IP behavioral statistics.
type Tracker = features.Tracker

// TrackerOption configures NewTracker.
type TrackerOption = features.TrackerOption

// NewTracker builds a behavior tracker.
func NewTracker(opts ...TrackerOption) (*Tracker, error) {
	return features.NewTracker(opts...)
}

// WithTrackerShards sets the tracker's lock-stripe count (rounded up to a
// power of two, clamped so the capacity bound stays exact). Zero, the
// default, auto-sizes from GOMAXPROCS and capacity.
func WithTrackerShards(n int) TrackerOption { return features.WithShards(n) }

// WithEvidenceHalfLife sets the decay half-life of the tracker's
// verified-solve credit (default 5m) — the recency horizon of behavioral
// redemption (NewRedemptionScorer).
func WithEvidenceHalfLife(d time.Duration) TrackerOption {
	return features.WithEvidenceHalfLife(d)
}

// WithSummaryStaleness lets the tracker serve a cached behavioral summary
// for up to d per IP, as long as no new verification evidence arrived —
// scoring reads then do cache-validity arithmetic instead of re-deriving
// nine attributes under the shard lock. Zero (the default) disables the
// cache; a few milliseconds is plenty to absorb a hot client's burst while
// staying far below any half-life or window the summaries feed.
func WithSummaryStaleness(d time.Duration) TrackerOption {
	return features.WithSummaryStaleness(d)
}

// RequestInfo is one observed request for behavioral tracking.
type RequestInfo = features.RequestInfo

// NewCombinedSource merges a static source with live tracker behavior.
func NewCombinedSource(static AttributeSource, tracker *Tracker) (AttributeSource, error) {
	return features.NewCombined(static, tracker)
}

// MaxScore is the top of the reputation scale (least trustworthy).
const MaxScore = policy.MaxScore
