// Package core implements the paper's central contribution: the
// policy-driven, AI-assisted PoW framework that wires the five modular
// components together — an AI model producing a reputation score, a policy
// mapping score to difficulty, a puzzle generator, a puzzle verifier, and
// the traffic feature source feeding the model.
//
// The request path follows Figure 1 of the paper:
//
//	(1) a client request arrives              → Decide(RequestContext)
//	(2) the AI model scores its features      → scorer.ScoreVector(row), the row
//	    filled by source.AttributesVector in the scorer's schema
//	(3) the policy maps score to difficulty   → Policy.Difficulty(score)
//	(4) the generator issues the puzzle       → Issuer.Issue(ip, d)
//	(5,6) the solved puzzle is verified       → Verify(solution, ip)
//	(7) the caller serves the resource.
//
// Every component is injected, satisfying the paper's modularity claim:
// swap the scorer (DAbR, behavioral), the policy (Policies 1–3, DSL
// rules, adaptive wrappers), or the feature source without touching the
// pipeline. The seam speaks one contract — a features.VectorScorer
// publishing a schema, a features.VectorSource filling rows in it — and
// Decide and DecideBatch run every row through one kernel (decideRow);
// map-shaped scorers and sources enter through features.NewMapScorer and
// features.SourceFromMap at the edge.
//
// # Runtime reconfiguration
//
// The swappable configuration — scorer, policy, source, fail-closed score,
// bypass threshold — lives in an immutable snapshot behind an atomic
// pointer. Decide loads the snapshot once per request; Swap (and the
// SwapPolicy/SwapScorer conveniences) installs a fresh snapshot RCU-style,
// so an operator can retune the defense mid-attack without a restart and
// without adding a single lock to the hot path. Long-lived shared state —
// the behavior tracker, issuer/verifier (and with them the HMAC key, TTL,
// difficulty cap, and replay cache), clock, and counters — persists
// across swaps; changing those requires a new Framework.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aipow/internal/features"
	"aipow/internal/metrics"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// RequestContext identifies one incoming request.
type RequestContext struct {
	// IP is the client identity; it becomes the challenge binding.
	IP string
}

// Decision is the outcome of the scoring-and-policy pipeline for one
// request.
type Decision struct {
	// IP echoes the request.
	IP string

	// Score is the reputation score used (after fail-closed substitution,
	// if the scorer errored).
	Score float64

	// Confidence is the scorer's calibrated certainty in Score, in [0, 1].
	// It is populated (below 1) only when the active policy consumes
	// verdicts (policy.ConsumesConfidence) and the scorer produces them —
	// a verdict nobody reads is not computed. Scorers without a verdict
	// path, plain-policy deployments, and fail-closed substitutions all
	// report 1: the score is enforced at face value, exactly the
	// pre-verdict behavior.
	Confidence float64

	// ScoreErr records a scorer failure. When non-nil, Score is the
	// configured fail-closed score, not a model output.
	ScoreErr error

	// Bypassed reports that the request was let through without a puzzle
	// (score under the bypass threshold). Challenge is zero in that case.
	Bypassed bool

	// Difficulty is the assigned puzzle difficulty (0 when bypassed).
	Difficulty int

	// Challenge is the issued puzzle (zero when bypassed).
	Challenge puzzle.Challenge
}

// snapshot is the swappable half of a Framework's configuration, immutable
// once published. Decide performs exactly one atomic load to read the
// whole set, so a swap can never be observed torn — a request runs either
// entirely on the old configuration or entirely on the new one.
type snapshot struct {
	scorer features.VectorScorer
	pol    policy.Policy
	source features.VectorSource

	failClosedScore float64
	bypassBelow     float64 // < 0 disables bypass

	// schema is scorer.Schema(), never nil (buildSnapshot refuses a scorer
	// without one). The scratch pool belongs to the snapshot because its
	// row length is the schema's.
	schema  *features.Schema
	vecPool *sync.Pool // *[]float64, len == schema.Len()

	// Optional accelerators, resolved once per snapshot so the request
	// path pays no type assertions. verdict is the scorer's confidence
	// path, non-nil only when the policy (confPol) consumes confidence —
	// a verdict nobody reads would cost every plain deployment the
	// confidence computation for nothing, so a plain policy scores through
	// ScoreVector at an implied confidence of 1. batch is the source's
	// whole-chunk fill; without it DecideBatch fills row by row.
	verdict features.VerdictScorer
	confPol policy.ConfidenceAware
	batch   features.VectorBatchSource

	// trace is the sampled decision-trace ring, nil when tracing is off.
	// It lives in the snapshot so the `observe trace(...)` spec line
	// hot-swaps it exactly like a policy: one snapshot store, in-flight
	// requests finish on the ring they loaded, and the unsampled hot path
	// pays only the nil-check it already pays for every snapshot field.
	trace *obs.TraceRing

	// creditIdx is the schema index of the live solve-credit attribute
	// (features.AttrSolveCredit), -1 when the schema does not carry it.
	// Sampled traces read the client's redemption credit through it.
	creditIdx int
}

// Framework is the assembled pipeline. Construct with New; all methods are
// safe for concurrent use, including Swap against concurrent
// Decide/Verify.
type Framework struct {
	snap atomic.Pointer[snapshot]

	// swapMu serializes writers of snap; readers never take it.
	swapMu sync.Mutex

	tracker  *features.Tracker
	issuer   *puzzle.Issuer
	verifier *puzzle.Verifier
	now      func() time.Time

	// closers run during Close (WithCloser): subsystems tied to this
	// framework's lifecycle, e.g. a cluster node's exchange loop.
	closers []func() error

	// stats are the serving counters, indexed by the stat* constants
	// (see statNames). One separate allocation, so the hot path's counter
	// writes stay off the cache lines of the read-mostly fields above.
	stats *[numStats]metrics.Counter

	// lat are the always-on serving-path latency histograms (milliseconds),
	// one per stage (see latStageNames). Atomic and allocation-free, so
	// they ride the hot path unconditionally; they are exported through
	// LatencyExpositionInto, deliberately not through StatsInto — stats
	// snapshots feed deterministic simulation reports, and wall-clock
	// latency is not deterministic.
	lat [latStages]*metrics.Histogram

	// traceRung mirrors the feedback plane's current escalation level into
	// sampled trace records (SetTraceRung).
	traceRung atomic.Int32

	// events receives evidence-plane defense events (flush stalls); nil
	// drops them.
	events obs.Sink

	// Per-difficulty cumulative profiles feeding the feedback signal
	// plane: diffIssued[d] counts challenges issued at difficulty d and
	// diffVerified[d] counts solutions verified at d. Fixed atomic arrays,
	// so recording costs the hot path one atomic add and zero allocations.
	diffIssued   [puzzle.MaxDifficulty + 1]atomic.Uint64
	diffVerified [puzzle.MaxDifficulty + 1]atomic.Uint64

	// Evidence write-back buffering (WithEvidenceBuffer): when wbSize ≥ 2
	// the tracker write paths — Observe, Verify's evidence, and
	// RecordVerifyEvidence — append to the tracker's per-shard buffers
	// instead of taking the shard lock inline, and a background loop
	// flushes every wbInterval (a full shard buffer flushes itself
	// inline, so wbSize bounds the lag in events and wbInterval bounds it
	// in time). Close stops the loop and drains; closed flips the
	// buffered paths back to synchronous so a Framework that outlives its
	// Close — an in-flight request during a control-plane rebuild —
	// cannot strand events in a buffer nobody will flush.
	wbSize     int
	wbInterval time.Duration
	closed     atomic.Bool
	closeOnce  sync.Once
	flushStop  chan struct{}
	flushDone  chan struct{}
}

// config collects the options New applies.
type config struct {
	key         []byte
	backend     puzzle.Backend
	scorer      features.VectorScorer
	pol         policy.Policy
	source      features.VectorSource
	tracker     *features.Tracker
	now         func() time.Time
	ttl         time.Duration
	maxDiff     int
	replaySize  int
	authSlots   int
	failClosed  float64
	bypassBelow float64
	clockSkew   time.Duration
	wbSize      int
	wbInterval  time.Duration
	tags        puzzle.TagExchange
	closers     []func() error
	trace       *obs.TraceRing
	events      obs.Sink
}

// Option customizes the framework.
type Option func(*config)

// WithKey sets the HMAC key shared by issuer and verifier. Required,
// minimum 16 bytes.
func WithKey(key []byte) Option { return func(c *config) { c.key = key } }

// WithPuzzleBackend selects the puzzle algorithm the framework's issuer
// and verifier run (default puzzle.Hashcash(), the paper's CPU-bound
// partial-preimage puzzle). The backend byte rides under the MAC in the
// one token format. Like the key and TTL, the backend is owned by the
// issuer/verifier pair and is not hot-swappable: changing it requires a
// new Framework, which the control plane's Gatekeeper does automatically
// on a `puzzle` line change.
func WithPuzzleBackend(b puzzle.Backend) Option {
	return func(c *config) { c.backend = b }
}

// WithScorer sets the AI model. Required; its Schema must be non-nil.
func WithScorer(s features.VectorScorer) Option { return func(c *config) { c.scorer = s } }

// WithPolicy sets the score→difficulty policy. Required.
func WithPolicy(p policy.Policy) Option { return func(c *config) { c.pol = p } }

// WithSource sets the attribute source consulted per request. Required.
func WithSource(s features.VectorSource) Option { return func(c *config) { c.source = s } }

// WithTracker attaches a behavior tracker; Observe forwards to it. The
// tracker is typically also wrapped into the Source via features.Combined.
func WithTracker(t *features.Tracker) Option { return func(c *config) { c.tracker = t } }

// WithClock injects the time source (default time.Now), the one clock of
// the serving path. Each request reads it once, at its door, and every
// stage uses that instant; the latency histograms time with it too, so
// under the simulator's virtual clock they record simulated time.
func WithClock(now func() time.Time) Option { return func(c *config) { c.now = now } }

// WithTTL sets challenge lifetime (default puzzle.DefaultTTL).
func WithTTL(ttl time.Duration) Option { return func(c *config) { c.ttl = ttl } }

// WithMaxDifficulty caps what the issuer will sign (default 32).
func WithMaxDifficulty(d int) Option { return func(c *config) { c.maxDiff = d } }

// WithReplayCacheSize bounds the single-use seed cache (default 1<<16).
// Zero disables replay protection entirely — only sensible in benchmarks.
func WithReplayCacheSize(n int) Option { return func(c *config) { c.replaySize = n } }

// WithAuthCacheSlots sizes the issuer/verifier authenticated-challenge
// cache (default 2048 slots; rounded up to a power of two and clamped to
// [64, 1<<22]). Size toward ≥ 10× the expected number of challenges
// outstanding (issued but not yet redeemed) at any instant — a slot
// collision before redemption only costs the redeeming request the full
// HMAC recomputation, never correctness. Zero keeps the default.
func WithAuthCacheSlots(n int) Option { return func(c *config) { c.authSlots = n } }

// WithFailClosedScore sets the score assumed when the scorer errors
// (default 10, the most suspicious). Fail-open (0) is possible but
// explicitly a policy decision.
func WithFailClosedScore(s float64) Option { return func(c *config) { c.failClosed = s } }

// WithBypassBelow lets requests scoring strictly under threshold through
// without any puzzle. The paper always issues a puzzle (cost “increases as
// the client's reputation score worsens” from a non-zero floor); bypass is
// an extension for sites that cannot tolerate any latency on trusted
// traffic. Negative disables (the default).
func WithBypassBelow(threshold float64) Option {
	return func(c *config) { c.bypassBelow = threshold }
}

// WithClockSkew sets issuer/verifier skew tolerance (default 2 s).
func WithClockSkew(d time.Duration) Option { return func(c *config) { c.clockSkew = d } }

// WithEvidenceBuffer routes the framework's tracker writes — Observe,
// Verify's evidence write-back, RecordVerifyEvidence — through the
// tracker's per-shard write-back buffers: the hot path appends an event
// (capturing its timestamp, so the applied state is bit-identical to a
// synchronous write) and a background loop folds buffered events into the
// tracker every interval. A shard's buffer also flushes itself inline at
// size events, so visibility lags by at most size events and roughly one
// interval. Callers must Close the framework to stop the flush loop and
// drain. Requires a tracker; size ≥ 2 and interval > 0.
//
// This takes the shard lock off the per-request write path — the half-life
// and window math tolerate the sub-millisecond staleness (see the bounded-
// staleness tests).
func WithEvidenceBuffer(size int, interval time.Duration) Option {
	return func(c *config) { c.wbSize, c.wbInterval = size, interval }
}

// WithTagExchange wires a fleet-wide redeemed-tag view (the cluster
// plane's replay suppression) into the framework's verifier: solutions
// whose challenge tag any fleet member already redeemed fail closed with
// puzzle.ErrReplayed, and every local redemption is published back for
// propagation. Nil (the default) keeps verification purely local — a
// single-node framework pays nothing for the seam.
func WithTagExchange(x puzzle.TagExchange) Option {
	return func(c *config) { c.tags = x }
}

// WithCloser registers fn to run during Framework.Close, after the
// evidence flush loop has stopped and drained. The control plane uses it
// to tie subsystems serving this framework — the cluster exchange loop —
// to the framework's lifecycle, so Gatekeeper.Close and pipeline rebuilds
// stop them without knowing what they are. Closers run in registration
// order; Close reports the first error.
func WithCloser(fn func() error) Option {
	return func(c *config) {
		if fn != nil {
			c.closers = append(c.closers, fn)
		}
	}
}

// buildSnapshot validates the swappable configuration and assembles an
// immutable snapshot from it, resolving the optional accelerators.
func buildSnapshot(scorer features.VectorScorer, pol policy.Policy, source features.VectorSource, failClosed, bypassBelow float64) (*snapshot, error) {
	switch {
	case scorer == nil:
		return nil, errors.New("core: a Scorer is required (WithScorer)")
	case pol == nil:
		return nil, errors.New("core: a Policy is required (WithPolicy)")
	case source == nil:
		return nil, errors.New("core: a feature Source is required (WithSource)")
	}
	if failClosed < policy.MinScore || failClosed > policy.MaxScore {
		return nil, fmt.Errorf("core: fail-closed score %v outside [%v, %v]",
			failClosed, policy.MinScore, policy.MaxScore)
	}
	schema := scorer.Schema()
	if schema == nil {
		return nil, fmt.Errorf("core: scorer publishes no schema (a model may carry at most %d attributes)",
			features.MaxSchemaAttrs)
	}
	s := &snapshot{
		scorer:          scorer,
		pol:             pol,
		source:          source,
		failClosedScore: failClosed,
		bypassBelow:     bypassBelow,
		schema:          schema,
		vecPool: &sync.Pool{New: func() any {
			v := schema.NewVector()
			return &v
		}},
		creditIdx: -1,
	}
	s.confPol, _ = pol.(policy.ConfidenceAware)
	if policy.ConsumesConfidence(pol) {
		s.verdict, _ = scorer.(features.VerdictScorer)
	}
	s.batch, _ = source.(features.VectorBatchSource)
	if idx, ok := schema.Index(features.AttrSolveCredit); ok {
		s.creditIdx = idx
	}
	return s, nil
}

// New assembles a Framework, validating that all required components are
// present and mutually consistent.
func New(opts ...Option) (*Framework, error) {
	cfg := config{
		now:         time.Now,
		ttl:         puzzle.DefaultTTL,
		maxDiff:     32,
		replaySize:  1 << 16,
		failClosed:  policy.MaxScore,
		bypassBelow: -1,
		clockSkew:   2 * time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	snap, err := buildSnapshot(cfg.scorer, cfg.pol, cfg.source, cfg.failClosed, cfg.bypassBelow)
	if err != nil {
		return nil, err
	}
	snap.trace = cfg.trace
	if cfg.key == nil {
		return nil, errors.New("core: an HMAC key is required (WithKey)")
	}
	if cfg.wbSize != 0 || cfg.wbInterval != 0 {
		switch {
		case cfg.tracker == nil:
			return nil, errors.New("core: evidence buffer requires a tracker (WithTracker)")
		case cfg.wbSize < 2:
			return nil, fmt.Errorf("core: evidence buffer size %d below minimum 2", cfg.wbSize)
		case cfg.wbInterval <= 0:
			return nil, fmt.Errorf("core: non-positive evidence flush interval %v", cfg.wbInterval)
		}
	}

	// Issuer and verifier live in one process here, so they share an
	// AuthCache: the verifier authenticates challenges this issuer produced
	// (or that it has itself already HMAC-checked) by byte equality instead
	// of recomputing the HMAC. Misses fall back to the full check, so the
	// cache changes verification cost, never outcomes.
	authCache := puzzle.NewAuthCache()
	if cfg.authSlots > 0 {
		authCache = puzzle.NewAuthCacheSize(cfg.authSlots)
	}
	issuerOpts := []puzzle.IssuerOption{
		puzzle.WithTTL(cfg.ttl),
		puzzle.WithIssuerMaxDifficulty(cfg.maxDiff),
		puzzle.WithIssuerAuthCache(authCache),
	}
	verifierOpts := []puzzle.VerifierOption{
		puzzle.WithClockSkew(cfg.clockSkew),
		puzzle.WithVerifierAuthCache(authCache),
	}
	if cfg.backend != nil {
		issuerOpts = append(issuerOpts, puzzle.WithIssuerBackend(cfg.backend))
		verifierOpts = append(verifierOpts, puzzle.WithVerifierBackend(cfg.backend))
	}
	issuer, err := puzzle.NewIssuer(cfg.key, issuerOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: build issuer: %w", err)
	}
	if cfg.replaySize > 0 {
		verifierOpts = append(verifierOpts,
			puzzle.WithReplayCache(puzzle.NewReplayCache(cfg.replaySize, cfg.now)))
	}
	if cfg.tags != nil {
		verifierOpts = append(verifierOpts, puzzle.WithTagExchange(cfg.tags))
	}
	verifier, err := puzzle.NewVerifier(cfg.key, verifierOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: build verifier: %w", err)
	}

	f := &Framework{
		tracker:  cfg.tracker,
		issuer:   issuer,
		verifier: verifier,
		now:      cfg.now,
		closers:  cfg.closers,
		events:   cfg.events,
		stats:    new([numStats]metrics.Counter),
	}
	for i := range f.lat {
		// 500 ns to ~5.5 s in 40 buckets of 50% width: coarse enough to
		// stay small, fine enough to separate a 2 µs decide from a 30 µs one.
		f.lat[i] = metrics.NewHistogram(0.0005, 1.5, 40)
	}
	f.snap.Store(snap)
	if cfg.wbSize > 0 {
		f.wbSize, f.wbInterval = cfg.wbSize, cfg.wbInterval
		f.flushStop = make(chan struct{})
		f.flushDone = make(chan struct{})
		go f.flushLoop()
	}
	return f, nil
}

// flushLoop periodically drains the tracker's write-back buffers, so
// evidence captured on a quiet shard (too few events to trigger the inline
// size flush) still becomes visible within about one interval.
func (f *Framework) flushLoop() {
	defer close(f.flushDone)
	t := time.NewTicker(f.wbInterval)
	defer t.Stop()
	for {
		select {
		case <-f.flushStop:
			return
		case <-t.C:
			start := f.now()
			f.tracker.FlushWriteBack()
			// A drain that overruns its own interval means the buffers are
			// refilling faster than they empty — the write-back lag bound
			// no longer holds. That is a defense-plane state worth an event.
			if f.events != nil {
				if el := f.now().Sub(start); el > f.wbInterval {
					f.events(obs.Event{
						At:    start,
						Kind:  obs.EventFlushStall,
						Value: float64(el) / float64(time.Millisecond),
					})
				}
			}
		}
	}
}

// Now reads the framework's clock. A front door that serves one request
// through several framework calls reads it once and passes the instant to
// the ...At methods and to RequestInfo.At.
func (f *Framework) Now() time.Time { return f.now() }

// Close stops the evidence flush loop and drains the tracker's write-back
// buffers. Idempotent, always nil. Frameworks built without
// WithEvidenceBuffer have nothing to stop, but closing them is still
// correct — the control plane closes every pipeline it replaces without
// caring how it was configured. After Close the buffered write paths
// degrade to synchronous tracker writes, so a request racing a
// control-plane rebuild cannot strand its evidence in a buffer nobody will
// flush (an event appended concurrently with the final drain may wait for
// the shard's next inline size-triggered flush; it is never lost).
// Registered closers (WithCloser — e.g. a cluster node's exchange loop)
// run after the drain; Close reports the first closer error.
func (f *Framework) Close() error {
	var err error
	f.closeOnce.Do(func() {
		f.closed.Store(true)
		if f.flushStop != nil {
			close(f.flushStop)
			<-f.flushDone
		}
		if f.tracker != nil {
			f.tracker.FlushWriteBack()
		}
		for _, fn := range f.closers {
			if cerr := fn(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// buffered reports whether tracker writes should go through the write-back
// buffers right now.
func (f *Framework) buffered() bool { return f.wbSize > 0 && !f.closed.Load() }

// recordVerify routes one piece of verification evidence into the tracker:
// through the write-back buffer when enabled, synchronously otherwise.
func (f *Framework) recordVerify(ip string, difficulty int, ok bool, at time.Time) {
	if f.tracker == nil || ip == "" {
		return
	}
	if f.buffered() {
		f.tracker.RecordVerifyBuffered(ip, difficulty, ok, at, f.wbSize)
		return
	}
	f.tracker.RecordVerify(ip, difficulty, ok, at)
}

// SwapOption describes one change to the swappable configuration; pass a
// set of them to Swap. Fields not mentioned keep their current values.
type SwapOption func(*swapConfig)

// swapConfig accumulates a Swap's changes against the current snapshot.
// The set flags distinguish "replace with nil" (rejected by validation)
// from "keep current".
type swapConfig struct {
	scorer      features.VectorScorer
	scorerSet   bool
	pol         policy.Policy
	polSet      bool
	source      features.VectorSource
	sourceSet   bool
	failClosed  *float64
	bypassBelow *float64
	trace       *obs.TraceRing
	traceSet    bool
}

// SetScorer replaces the AI model.
func SetScorer(s features.VectorScorer) SwapOption {
	return func(c *swapConfig) { c.scorer, c.scorerSet = s, true }
}

// SetPolicy replaces the score→difficulty policy.
func SetPolicy(p policy.Policy) SwapOption {
	return func(c *swapConfig) { c.pol, c.polSet = p, true }
}

// SetSource replaces the per-request attribute source.
func SetSource(s features.VectorSource) SwapOption {
	return func(c *swapConfig) { c.source, c.sourceSet = s, true }
}

// SetFailClosedScore replaces the score assumed on scorer failure.
func SetFailClosedScore(v float64) SwapOption {
	return func(c *swapConfig) { c.failClosed = &v }
}

// SetBypassBelow replaces the bypass threshold (negative disables bypass).
func SetBypassBelow(v float64) SwapOption {
	return func(c *swapConfig) { c.bypassBelow = &v }
}

// Swap atomically replaces the framework's swappable configuration —
// scorer, policy, source, fail-closed score, bypass threshold — with a new
// immutable snapshot built from the current one plus the given changes.
// Requests in flight finish on the snapshot they loaded; requests arriving
// after Swap returns see the new one. The tracker, issuer/verifier (key,
// TTL, max difficulty, replay cache), clock, and counters are shared
// long-lived state and persist across swaps.
//
// A failed Swap (nil component, scorer without a schema, fail-closed score
// out of range) leaves the current configuration untouched.
func (f *Framework) Swap(changes ...SwapOption) error {
	if len(changes) == 0 {
		return errors.New("core: swap without changes")
	}
	f.swapMu.Lock()
	defer f.swapMu.Unlock()
	cur := f.snap.Load()
	cfg := swapConfig{}
	for _, change := range changes {
		change(&cfg)
	}
	scorer, pol, source := cur.scorer, cur.pol, cur.source
	failClosed, bypassBelow := cur.failClosedScore, cur.bypassBelow
	if cfg.scorerSet {
		scorer = cfg.scorer
	}
	if cfg.polSet {
		pol = cfg.pol
	}
	if cfg.sourceSet {
		source = cfg.source
	}
	if cfg.failClosed != nil {
		failClosed = *cfg.failClosed
	}
	if cfg.bypassBelow != nil {
		bypassBelow = *cfg.bypassBelow
	}
	next, err := buildSnapshot(scorer, pol, source, failClosed, bypassBelow)
	if err != nil {
		return fmt.Errorf("core: swap rejected: %w", err)
	}
	// Reuse the current scratch pool when the schema is unchanged: warm
	// *[]float64 buffers stay warm across policy-only swaps.
	if next.schema == cur.schema {
		next.vecPool = cur.vecPool
	}
	// The trace ring persists across unrelated swaps; SetTrace replaces it.
	next.trace = cur.trace
	if cfg.traceSet {
		next.trace = cfg.trace
	}
	f.snap.Store(next)
	f.stats[statSwaps].Inc()
	return nil
}

// SwapPolicy atomically replaces just the policy — the paper's headline
// operation: switching policy1 → policy2 mid-attack without redeploying.
func (f *Framework) SwapPolicy(p policy.Policy) error { return f.Swap(SetPolicy(p)) }

// SwapScorer atomically replaces just the AI model (e.g. installing a
// freshly retrained reputation model). The snapshot is rebuilt against the
// new scorer's schema.
func (f *Framework) SwapScorer(s features.VectorScorer) error { return f.Swap(SetScorer(s)) }

// Decide runs steps 2–4 of the protocol for one request: score the
// client's features, map the score to a difficulty, and issue a bound
// challenge. The whole decision runs on one configuration snapshot loaded
// at entry, so a concurrent Swap is never observed torn. Decide reads the
// clock for the request's instant; DecideAt takes it from the caller.
func (f *Framework) Decide(req RequestContext) (Decision, error) {
	return f.DecideAt(req, f.now())
}

// DecideAt is Decide for a request whose instant now the caller read from
// Now: the client is scored and the challenge issued at now, and the
// decide span starts there. It reads the clock at most twice more, to
// time the scoring and issue stages.
func (f *Framework) DecideAt(req RequestContext, now time.Time) (Decision, error) {
	if req.IP == "" {
		return Decision{}, errors.New("core: request without client IP")
	}
	snap := f.snap.Load()
	dec := Decision{IP: req.IP}

	vp := snap.vecPool.Get().(*[]float64)
	row := *vp
	clear(row)
	mask := snap.source.AttributesVector(row, snap.schema, req.IP, now)
	f.decideRow(snap, &dec, row, mask)
	snap.vecPool.Put(vp)

	t1 := f.now()
	t2 := t1
	if !dec.Bypassed {
		ch, err := f.issuer.IssueAt(req.IP, dec.Difficulty, now)
		if err != nil {
			return Decision{}, fmt.Errorf("core: issue challenge: %w", err)
		}
		dec.Challenge = ch
		f.stats[statIssued].Inc()
		f.diffIssued[dec.Difficulty].Add(1) // issuer validated the range
		t2 = f.now()
		f.lat[latStageIssue].ObserveDuration(t2.Sub(t1))
	}
	f.lat[latStageDecide].ObserveDuration(t2.Sub(now))
	if snap.trace != nil && snap.trace.Sampled() {
		f.traceDecide(snap, &dec, now, t1, t2)
	}
	return dec, nil
}

// decideRow is the per-item decision kernel Decide and DecideBatch share:
// it maps one filled attribute row and its coverage mask to dec's score,
// confidence, bypass flag, and difficulty, leaving only issuance to the
// caller. row is consumed (scorers use it as scratch).
func (f *Framework) decideRow(snap *snapshot, dec *Decision, row []float64, mask uint64) {
	score, conf := 0.0, 1.0
	var err error
	switch {
	case mask != snap.schema.FullMask():
		// A zero-filled slot is not an attribute value: refuse to score a
		// row the source could not cover, and say which slots were short.
		err = snap.schema.Missing(mask)
	case snap.verdict != nil:
		var ver features.Verdict
		ver, err = snap.verdict.VerdictVector(row)
		score, conf = ver.Score, ver.Confidence
	default:
		score, err = snap.scorer.ScoreVector(row)
	}
	if err != nil {
		// Fail closed: an unscorable client is treated as configured,
		// default maximally suspicious — at full confidence, so a
		// confidence-shaped policy cannot soften the fail-closed price.
		// The error is preserved on the decision for observability.
		dec.ScoreErr = err
		score, conf = snap.failClosedScore, 1
		f.stats[statScoreErrors].Inc()
	}
	dec.Score, dec.Confidence = score, conf
	if snap.bypassBelow >= 0 && score < snap.bypassBelow {
		dec.Bypassed = true
		f.stats[statBypassed].Inc()
		return
	}
	if snap.confPol != nil {
		dec.Difficulty = snap.confPol.ConfidentDifficulty(score, conf)
	} else {
		dec.Difficulty = snap.pol.Difficulty(score)
	}
}

// Verify runs steps 5–6: check the solution presented by binding. A nil
// return means the caller should serve the resource.
//
// Verification outcomes are also behavioral *evidence*: a successful
// solve is written back into the attached tracker as solve credit (the
// redemption feed for reputation.Decay — a misscored client that keeps
// paying earns its way out of the false-positive tail), and a failure
// extends the IP's fail streak (which cancels redemption). Both writes
// are allocation-free for tracked IPs; without a tracker Verify behaves
// exactly as before. Verify reads the clock for the request's instant;
// VerifyAt takes it from the caller.
func (f *Framework) Verify(sol puzzle.Solution, binding string) error {
	return f.VerifyAt(&sol, binding, f.now())
}

// VerifyAt is Verify for a request whose instant now the caller read
// from Now: freshness, the replay probe and claim, and the evidence
// timestamp all use now, and the verify span starts there. It reads the
// clock once more, to end that span. sol is not modified.
func (f *Framework) VerifyAt(sol *puzzle.Solution, binding string, now time.Time) error {
	d, err := f.verifyOne(sol, binding, now)
	f.recordVerify(binding, d, err == nil, now)
	el := f.now().Sub(now)
	f.lat[latStageVerify].ObserveDuration(el)
	if t := f.snap.Load().trace; t != nil && t.Sampled() {
		f.traceVerify(t, now, sol, binding, err, el)
	}
	return err
}

// verifyOne is the per-solution function Verify and VerifyBatch share: the
// cryptographic check against one clock reading, the verified/rejected
// counters, and the per-difficulty profile. It returns the evidence
// difficulty (0 for a rejection); how the evidence reaches the tracker is
// the caller's business.
func (f *Framework) verifyOne(sol *puzzle.Solution, binding string, now time.Time) (int, error) {
	if err := f.verifier.VerifyAt(sol, binding, now); err != nil {
		f.stats[statRejected].Inc()
		return 0, err
	}
	f.countVerified(sol.Challenge.Difficulty)
	return sol.Challenge.Difficulty, nil
}

// countVerified books one accepted verification at difficulty d.
func (f *Framework) countVerified(d int) {
	f.stats[statVerified].Inc()
	if d >= 0 && d < len(f.diffVerified) {
		f.diffVerified[d].Add(1)
	}
}

// RecordVerifyEvidence records one externally-adjudicated verification
// outcome exactly as Verify itself would: the verified/rejected counters
// and the per-difficulty verified profile count it, and the attached
// tracker (if any) receives it as evidence. It exists for hosts that model
// or offload verification — the simulation engine's modeled solves use it
// so the signal plane and the redemption path see the same stream a real
// deployment's Verify calls produce.
func (f *Framework) RecordVerifyEvidence(ip string, difficulty int, ok bool) {
	if ok {
		f.countVerified(difficulty)
	} else {
		f.stats[statRejected].Inc()
		difficulty = 0
	}
	f.recordVerify(ip, difficulty, ok, f.now())
}

// DifficultyProfileInto copies the cumulative per-difficulty counters into
// issued and verified (index = difficulty, up to puzzle.MaxDifficulty);
// shorter destination slices receive a prefix. The feedback signal plane
// polls this once per controller tick to derive windowed difficulty
// distributions and the hard-solve false-positive proxy.
func (f *Framework) DifficultyProfileInto(issued, verified []uint64) {
	for d := 0; d < len(f.diffIssued) && d < len(issued); d++ {
		issued[d] = f.diffIssued[d].Load()
	}
	for d := 0; d < len(f.diffVerified) && d < len(verified); d++ {
		verified[d] = f.diffVerified[d].Load()
	}
}

// Observe feeds one request into the attached behavior tracker (a no-op
// without one). Call it for every request, including ones that fail
// verification — failures are behavioral signal.
func (f *Framework) Observe(req features.RequestInfo) error {
	if f.tracker == nil {
		return nil
	}
	if f.buffered() {
		return f.tracker.ObserveBuffered(req, f.wbSize)
	}
	return f.tracker.Observe(req)
}

// PolicyName reports the active policy's name for logs and tables.
func (f *Framework) PolicyName() string { return f.snap.Load().pol.Name() }

// Swaps reports how many configuration swaps have been installed — a
// cheap generation counter the control plane uses to detect out-of-band
// Swap calls on a spec-managed framework.
func (f *Framework) Swaps() uint64 { return f.stats[statSwaps].Value() }

// Stats returns a snapshot of the framework's counters: issued, verified,
// rejected, bypassed, score_errors, swaps.
func (f *Framework) Stats() map[string]float64 {
	out := make(map[string]float64, numStats)
	f.StatsInto(out)
	return out
}

// StatsInto adds the framework's counter values into dst, overwriting
// same-named keys. Callers polling stats (a server's /stats endpoint, the
// simulation reporter) reuse one map across calls instead of allocating a
// fresh one per poll.
func (f *Framework) StatsInto(dst map[string]float64) { f.StatsPrefixInto("", dst) }

// StatsPrefixInto is StatsInto with every key prefixed (e.g.
// "web.issued"), for pollers aggregating several frameworks into one map
// without an intermediate map per framework.
func (f *Framework) StatsPrefixInto(prefix string, dst map[string]float64) {
	for i, name := range statNames {
		dst[prefix+name] = float64(f.stats[i].Value())
	}
}
