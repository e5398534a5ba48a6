package control

import (
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aipow/internal/baseline"
	"aipow/internal/cluster"
	"aipow/internal/core"
	"aipow/internal/dataset"
	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
	"aipow/internal/reputation"
)

// ScorerFactory builds an AI model from a component spec's numeric
// parameters. Factories must reject unknown parameter names.
type ScorerFactory func(params map[string]float64) (features.VectorScorer, error)

// SourceFactory builds a per-request attribute source. It receives the
// registry's shared behavior tracker so deployment-specific sources
// (feed stores, combined static+live sources) can layer onto the same
// live behavioral state every pipeline observes into.
type SourceFactory func(params map[string]float64, tracker *features.Tracker) (features.VectorSource, error)

// Registry resolves component names in pipeline specs and owns the shared
// long-lived state every pipeline it builds rides on: one root HMAC key,
// one behavior tracker (so behavioral history survives swaps and is
// shared across per-route pipelines), and one clock.
//
// Each pipeline signs with a key derived from the root key and the
// pipeline's name. Same name ⇒ same key, so a pipeline rebuilt by a
// reconfiguration keeps accepting challenges its predecessor issued;
// different names ⇒ different keys, so a cheap challenge solved on a
// lenient route can never be redeemed on a stricter one — per-route
// difficulty is enforced, not advisory.
//
// It resolves policies with policy.Parse and ships with a "tracker" source
// (the live tracker alone), the kaPoW-style "rate(saturation=…)" scorer
// and the "hybrid(inner=…, saturation=…)" scorer combinator; deployments
// register their scorers and richer sources (RegisterPaperComponents
// registers the paper's). A Registry is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	scorers map[string]ScorerFactory
	sources map[string]SourceFactory

	key     []byte
	tracker *features.Tracker
	now     func() time.Time
	nodeID  string
	events  obs.Sink

	// windowed holds the per-pipeline trackers behind `window <duration>`
	// and `redeem(half-life=…)` pipeline specs, keyed by (window span,
	// evidence half-life): pipelines declaring equal keys share one
	// tracker (and with it behavioral history), pipelines declaring
	// different keys get different decay horizons — the knobs the shared
	// tracker used to force deployment-wide. Like the default tracker,
	// these trackers persist across applies. windowOrder tracks creation
	// order for the FIFO bound below.
	windowed    map[trackerKey]*features.Tracker
	windowOrder []trackerKey
}

// trackerKey identifies a shared per-pipeline tracker: the sliding-window
// span (zero: the default window) and the solve-evidence half-life (zero:
// the default tracker's half-life). Both are tracker construction state,
// which is why `window` and `redeem half-life` are not hot-swappable.
type trackerKey struct {
	window   time.Duration
	halfLife time.Duration
}

// maxTrackerWindows bounds how many distinct per-pipeline tracker windows
// one registry retains for sharing. Each tracker is a full
// capacity-bounded state store, so the set is FIFO-bounded like the
// store/layout caches: when an operator's window tuning has churned past
// the bound, the oldest-created window is retired from the share map —
// pipelines already built on it keep their tracker untouched, but a
// *future* pipeline declaring that span starts a fresh one (losing
// cross-build history sharing for that window, never failing the apply).
const maxTrackerWindows = 8

// RegistryOption customizes NewRegistry.
type RegistryOption func(*Registry)

// WithRegistryTracker sets the shared behavior tracker (default: a fresh
// tracker with default sizing).
func WithRegistryTracker(t *features.Tracker) RegistryOption {
	return func(r *Registry) { r.tracker = t }
}

// WithRegistryClock injects the time source every built pipeline uses
// (default time.Now; simulations pass a virtual clock).
func WithRegistryClock(now func() time.Time) RegistryOption {
	return func(r *Registry) { r.now = now }
}

// WithRegistryNodeID names this process in cluster exchange frames
// (default "local"). Fleet deployments must give every member a unique
// id — powserver defaults it to the hostname.
func WithRegistryNodeID(id string) RegistryOption {
	return func(r *Registry) {
		if id != "" {
			r.nodeID = id
		}
	}
}

// WithRegistryEvents attaches the defense event sink every built pipeline
// emits into: adapt level transitions, cluster membership changes, and
// evidence flush stalls, each stamped with the pipeline name. The
// gatekeeper also reports spec applies and rollbacks through it. Nil (the
// default) drops all events.
func WithRegistryEvents(sink obs.Sink) RegistryOption {
	return func(r *Registry) { r.events = sink }
}

// NewRegistry returns a component registry sharing key, tracker, and clock
// across every pipeline it builds. The root key must be at least 16
// bytes: per-pipeline keys are derived from it by HMAC, which always
// yields full-length output, so the issuer's own minimum-length check
// could never catch a weak root.
func NewRegistry(key []byte, opts ...RegistryOption) (*Registry, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("control: registry requires an HMAC root key of at least 16 bytes, got %d", len(key))
	}
	r := &Registry{
		scorers: make(map[string]ScorerFactory),
		sources: make(map[string]SourceFactory),
		key:     key,
		now:     time.Now,
		nodeID:  "local",
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.tracker == nil {
		t, err := features.NewTracker()
		if err != nil {
			return nil, err
		}
		r.tracker = t
	}
	if err := r.RegisterSource("tracker", func(params map[string]float64, tracker *features.Tracker) (features.VectorSource, error) {
		if err := policy.RejectUnknownParams(params); err != nil {
			return nil, err
		}
		return tracker, nil
	}); err != nil {
		return nil, err
	}
	if err := r.RegisterScorer("rate", func(params map[string]float64) (features.VectorScorer, error) {
		if err := policy.RejectUnknownParams(params, "saturation"); err != nil {
			return nil, err
		}
		return baseline.NewRateScorer(params["saturation"])
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// RegisterPaperComponents registers the paper's pipeline components over
// a trained DAbR model and a static intelligence feed: the scorer "dabr"
// (the model), and the sources "feed" (the store alone) and "combined"
// (the store plus the pipeline's live behavior tracker).
func (r *Registry) RegisterPaperComponents(model *reputation.Model, store *features.MapStore) error {
	noParams := func(params map[string]float64) error { return policy.RejectUnknownParams(params) }
	return errors.Join(
		r.RegisterScorer("dabr", func(params map[string]float64) (features.VectorScorer, error) {
			return model, noParams(params)
		}),
		r.RegisterSource("feed", func(params map[string]float64, _ *features.Tracker) (features.VectorSource, error) {
			return store, noParams(params)
		}),
		r.RegisterSource("combined", func(params map[string]float64, tracker *features.Tracker) (features.VectorSource, error) {
			if err := noParams(params); err != nil {
				return nil, err
			}
			return features.NewCombined(store, tracker)
		}),
	)
}

// FeedSamples converts intelligence-feed rows to the model's training
// samples.
func FeedSamples(feed []dataset.Sample) []reputation.Sample {
	out := make([]reputation.Sample, len(feed))
	for i, s := range feed {
		out[i] = reputation.Sample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	return out
}

// TrainFeedModel trains the DAbR model on the feed, deterministically
// under seed.
func TrainFeedModel(feed []dataset.Sample, seed uint64) (*reputation.Model, error) {
	return reputation.Train(FeedSamples(feed), reputation.WithSeed(seed))
}

// NewFeedStore indexes every feed row by IP. An address the feed does not
// know falls back to the median benign profile (the per-attribute median
// over the feed's benign rows): static scoring sees an ordinary client,
// and only live behavior can raise suspicion. A feed with no benign row
// has no such profile and is an error.
func NewFeedStore(feed []dataset.Sample) (*features.MapStore, error) {
	var benign []map[string]float64
	for _, s := range feed {
		if !s.Malicious {
			benign = append(benign, s.Attrs)
		}
	}
	if len(benign) == 0 {
		return nil, errors.New("control: feed has no benign rows for the fallback profile")
	}
	median := make(map[string]float64, len(benign[0]))
	vals := make([]float64, len(benign))
	for name := range benign[0] {
		for i, attrs := range benign {
			vals[i] = attrs[name]
		}
		median[name] = nth(vals, len(vals)/2)
	}
	store, err := features.NewMapStore(median)
	if err != nil {
		return nil, err
	}
	for _, s := range feed {
		store.Put(s.IP, s.Attrs)
	}
	return store, nil
}

// nth returns the value slices.Sort would place at vals[k] (vals NaN-free),
// reordering vals by quickselect: linear time, where a sort per attribute
// made the median a visible share of powserver's boot on a large feed.
func nth(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		pivot := vals[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return vals[k]
		}
	}
	return vals[k]
}

// Tracker reports the shared behavior tracker.
func (r *Registry) Tracker() *features.Tracker { return r.tracker }

// trackerFor resolves a pipeline's behavior tracker: the shared default
// when the spec declares neither a window nor a redeem half-life,
// otherwise the per-key tracker for that (window, half-life) pair,
// created on first use and cached so same-key pipelines share state.
// Per-key trackers inherit the shared tracker's remaining sizing
// (capacity, window bucket count, and whichever of window span/half-life
// the spec leaves zero) so the spec changes exactly the declared knobs
// instead of silently resetting an operator's tuning to defaults.
func (r *Registry) trackerFor(ps PipelineSpec) (*features.Tracker, error) {
	key := trackerKey{window: time.Duration(ps.TrackerWindow)}
	if ps.Redeem != nil {
		key.halfLife = time.Duration(ps.Redeem.HalfLife)
	}
	if key == (trackerKey{}) {
		return r.tracker, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.windowed[key]; ok {
		return t, nil
	}
	halfLife := cmp.Or(key.halfLife, r.tracker.EvidenceHalfLife())
	span, buckets := r.tracker.Window()
	t, err := features.NewTracker(
		features.WithCapacity(r.tracker.Capacity()),
		features.WithEvidenceHalfLife(halfLife),
		features.WithWindow(cmp.Or(key.window, span), buckets),
	)
	if err != nil {
		return nil, fmt.Errorf("control: window %v / half-life %v tracker: %w", key.window, halfLife, err)
	}
	if r.windowed == nil {
		r.windowed = make(map[trackerKey]*features.Tracker, 1)
	}
	for len(r.windowed) >= maxTrackerWindows {
		oldest := r.windowOrder[0]
		r.windowOrder = r.windowOrder[1:]
		delete(r.windowed, oldest) // FIFO: see maxTrackerWindows
	}
	r.windowed[key] = t
	r.windowOrder = append(r.windowOrder, key)
	return t, nil
}

// pipelineKey derives a pipeline's signing key from the root key and the
// pipeline name (HMAC-SHA256, domain-separated). Stable across rebuilds
// of the same pipeline, distinct across pipelines.
func (r *Registry) pipelineKey(name string) []byte {
	mac := hmac.New(sha256.New, r.key)
	mac.Write([]byte("aipow-pipeline-key:"))
	mac.Write([]byte(name))
	return mac.Sum(nil)
}

// issuanceOptions is the single factory through which every pipeline's
// issuer/verifier identity is constructed: the derived per-pipeline
// signing key and the parsed puzzle backend, bundled into one core option
// slice. Routing all construction through here keeps the two from
// drifting apart — a pipeline can never end up signing with one route's
// key while issuing another route's backend, and the cross-route
// redemption guarantee (different name ⇒ different key ⇒ tokens do not
// transfer) holds for every backend alike.
func (r *Registry) issuanceOptions(ps PipelineSpec) ([]core.Option, error) {
	backend, err := puzzle.ParseBackendSpec(ps.Puzzle)
	if err != nil {
		return nil, fmt.Errorf("control: pipeline %q puzzle: %w", ps.Name, err)
	}
	return []core.Option{core.WithKey(r.pipelineKey(ps.Name)), core.WithPuzzleBackend(backend)}, nil
}

// RegisterScorer adds a named scorer factory. Re-registering a name is an
// error: silent overrides hide configuration mistakes.
func (r *Registry) RegisterScorer(name string, f ScorerFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("control: scorer registration requires a name and factory")
	}
	if name == hybridName {
		return fmt.Errorf("control: %q is a reserved scorer combinator name", hybridName)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.scorers[name]; dup {
		return fmt.Errorf("control: scorer %q already registered", name)
	}
	r.scorers[name] = f
	return nil
}

// RegisterSource adds a named source factory. Re-registering a name is an
// error.
func (r *Registry) RegisterSource(name string, f SourceFactory) error {
	if name == "" || f == nil {
		return fmt.Errorf("control: source registration requires a name and factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[name]; dup {
		return fmt.Errorf("control: source %q already registered", name)
	}
	r.sources[name] = f
	return nil
}

// ScorerNames reports registered scorer names, sorted.
func (r *Registry) ScorerNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.scorers)
}

// SourceNames reports registered source names, sorted.
func (r *Registry) SourceNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.sources)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// newScorer resolves a scorer component spec.
func (r *Registry) newScorer(spec string) (features.VectorScorer, error) {
	name, params, err := policy.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("control: scorer spec: %w", err)
	}
	r.mu.RLock()
	f, ok := r.scorers[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("control: unknown scorer %q (known: %s)",
			name, strings.Join(r.ScorerNames(), ", "))
	}
	s, err := f(params)
	if err != nil {
		return nil, fmt.Errorf("control: scorer %q: %w", name, err)
	}
	if s == nil {
		return nil, fmt.Errorf("control: scorer %q factory returned nil", name)
	}
	return s, nil
}

// hybridName is the reserved scorer combinator
// "hybrid(inner=<scorer spec>, saturation=<req/s>)": max(inner, rate). The
// registry resolves it itself, like policy's shape(inner=…), because its
// inner parameter is a nested component spec, not a number.
const hybridName = "hybrid"

// pipelineScorer resolves a spec's scorer and wraps it in the spec's
// redemption. Under hybrid(inner=…) redemption wraps the inner scorer, so
// the rate blend stays outside it: earned credit attenuates the model's
// judgment, never the price of a client flooding right now.
func (r *Registry) pipelineScorer(ps PipelineSpec) (features.VectorScorer, error) {
	name, raw, err := policy.ParseSpecParams(ps.Scorer)
	if err != nil {
		return nil, fmt.Errorf("control: scorer spec: %w", err)
	}
	spec, saturation := ps.Scorer, 0.0
	if name == hybridName {
		spec = ""
		if err := policy.DecodeParams(raw,
			policy.Field{Name: "inner", Dst: &spec},
			policy.Field{Name: "saturation", Dst: &saturation},
		); err != nil {
			return nil, fmt.Errorf("control: scorer %s: %w", hybridName, err)
		}
	}
	scorer, err := r.newScorer(spec)
	if err != nil {
		return nil, err
	}
	if ps.Redeem != nil {
		if scorer, err = r.redeemScorer(ps, scorer); err != nil {
			return nil, err
		}
	}
	if name != hybridName {
		return scorer, nil
	}
	hybrid, err := baseline.NewHybridScorer(scorer, saturation)
	if err != nil {
		return nil, fmt.Errorf("control: scorer %s: %w", hybridName, err)
	}
	return hybrid, nil
}

// newSource resolves a source component spec ("" defaults to "tracker")
// over the pipeline's behavior tracker.
func (r *Registry) newSource(spec string, tracker *features.Tracker) (features.VectorSource, error) {
	if spec == "" {
		spec = "tracker"
	}
	name, params, err := policy.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("control: source spec: %w", err)
	}
	r.mu.RLock()
	f, ok := r.sources[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("control: unknown source %q (known: %s)",
			name, strings.Join(r.SourceNames(), ", "))
	}
	s, err := f(params, tracker)
	if err != nil {
		return nil, fmt.Errorf("control: source %q: %w", name, err)
	}
	if s == nil {
		return nil, fmt.Errorf("control: source %q factory returned nil", name)
	}
	return s, nil
}

// newPolicy resolves a spec's policy — a policy.Parse spec or inline rules —
// and finishes it with the pipeline's shared wrapping.
func (r *Registry) newPolicy(ps PipelineSpec, load policy.LoadFunc) (policy.Policy, error) {
	var pol policy.Policy
	var err error
	if ps.PolicyRules != "" {
		pol, err = policy.ParseRules(ps.PolicyRules)
	} else {
		pol, err = policy.Parse(ps.Policy)
	}
	if err != nil {
		return nil, fmt.Errorf("control: pipeline %q policy: %w", ps.Name, err)
	}
	return r.finishPolicy(ps, pol, load)
}

// finishPolicy applies the wrapping every policy serving ps receives —
// the declared one and each adapt escalation rung alike: the
// load-adaptive shift (when the adapt section declares load-shift, fed by
// the pipeline's signal plane) and the clamp to [1, max-difficulty] so
// the worst score still yields a challenge rather than an over-cap
// issuance error.
func (r *Registry) finishPolicy(ps PipelineSpec, pol policy.Policy, load policy.LoadFunc) (policy.Policy, error) {
	if ps.Adapt != nil && ps.Adapt.LoadShift > 0 {
		shifted, err := policy.NewLoadAdaptive(pol, load, ps.Adapt.LoadShift)
		if err != nil {
			return nil, fmt.Errorf("control: pipeline %q: load-shift: %w", ps.Name, err)
		}
		pol = shifted
	}
	clamped, err := policy.NewClamp(pol, 1, ps.MaxDifficulty)
	if err != nil {
		return nil, fmt.Errorf("control: pipeline %q: clamp to max-difficulty %d: %w", ps.Name, ps.MaxDifficulty, err)
	}
	return clamped, nil
}

// newController compiles a spec's adapt section into a feedback
// controller over the given base policy. The controller is returned
// unbound; the pipeline attaches it (target + counter source) at install
// time. events receives each level transition (Pipeline.adaptEvents: the
// trace rung follows the level, the registry sink gets the event).
func (r *Registry) newController(ps PipelineSpec, base policy.Policy, load policy.LoadFunc, events obs.Sink) (*feedback.Controller, error) {
	a := ps.Adapt
	rules := make([]feedback.Rule, 0, len(a.Rules))
	for _, spec := range a.Rules {
		rule, err := feedback.ParseRule(spec)
		if err != nil {
			return nil, fmt.Errorf("control: pipeline %q adapt: %w", ps.Name, err)
		}
		rules = append(rules, rule)
	}
	ctrl, err := feedback.New(feedback.Config{
		Interval: time.Duration(a.Interval),
		Sampler: feedback.SamplerConfig{
			Capacity:       a.Capacity,
			HardDifficulty: a.Hard,
			Window:         a.Window,
		},
		Rules: rules,
		Compile: func(spec string) (policy.Policy, error) {
			pol, err := policy.Parse(spec)
			if err != nil {
				return nil, err
			}
			return r.finishPolicy(ps, pol, load)
		},
		Base:   base,
		Events: events,
	})
	if err != nil {
		return nil, fmt.Errorf("control: pipeline %q adapt: %w", ps.Name, err)
	}
	return ctrl, nil
}

// redeemScorer wraps a resolved scorer with the spec's behavioral
// redemption. The half-life parameter is absent here deliberately: it is
// tracker state, applied by trackerFor.
func (r *Registry) redeemScorer(ps PipelineSpec, scorer features.VectorScorer) (features.VectorScorer, error) {
	var opts []reputation.DecayOption
	if ps.Redeem.Max > 0 {
		opts = append(opts, reputation.WithMaxRedemption(ps.Redeem.Max))
	}
	if ps.Redeem.HalfCredit > 0 {
		opts = append(opts, reputation.WithHalfCredit(ps.Redeem.HalfCredit))
	}
	dec, err := reputation.NewDecay(scorer, opts...)
	if err != nil {
		return nil, fmt.Errorf("control: pipeline %q redeem: %w", ps.Name, err)
	}
	return dec, nil
}

// DefaultMaxDifficulty is the issuance cap when a spec leaves
// max-difficulty unset — high enough to price out abusive clients
// (seconds of compute), low enough that a misscored legitimate client is
// delayed, not locked out.
const DefaultMaxDifficulty = 22

// withDefaults resolves a spec's zero values to their effective settings.
func (ps PipelineSpec) withDefaults() PipelineSpec {
	if ps.MaxDifficulty == 0 {
		ps.MaxDifficulty = DefaultMaxDifficulty
	}
	if ps.TTL == 0 {
		ps.TTL = Duration(puzzle.DefaultTTL)
	}
	if ps.ClockSkew == 0 {
		ps.ClockSkew = Duration(2 * time.Second)
	}
	return ps
}

// pipelineEvents wraps the registry's event sink to stamp the pipeline
// name onto every event; nil when no sink is configured, so emitters can
// skip event assembly entirely.
func (r *Registry) pipelineEvents(name string) obs.Sink {
	sink := r.events
	if sink == nil {
		return nil
	}
	return func(e obs.Event) {
		e.Pipeline = name
		sink(e)
	}
}

// newTraceRing compiles a spec's observe section into a trace ring (nil
// without one).
func newTraceRing(o *ObserveSpec) *obs.TraceRing {
	if o == nil {
		return nil
	}
	return obs.NewTraceRing(traceGeometry(o))
}

// components compiles the hot-swappable component set of a spec over the
// pipeline's tracker, including the feedback controller when the spec has
// an adapt section. load feeds load-shifted policies and must outlive
// controller rebuilds (pipelines pass their stable load indirection);
// events is the controller's transition sink (Pipeline.adaptEvents).
func (r *Registry) components(ps PipelineSpec, load policy.LoadFunc, tracker *features.Tracker, events obs.Sink) (features.VectorScorer, policy.Policy, features.VectorSource, *feedback.Controller, error) {
	scorer, err := r.pipelineScorer(ps)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pol, err := r.newPolicy(ps, load)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	source, err := r.newSource(ps.Source, tracker)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var ctrl *feedback.Controller
	if ps.Adapt != nil {
		ctrl, err = r.newController(ps, pol, load, events)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return scorer, pol, source, ctrl, nil
}

// Build compiles a pipeline spec into a runnable Pipeline: components
// resolved against the registry, assembled around a core.Framework wired
// to the shared key, the pipeline's tracker (the shared one, or a
// per-window tracker when the spec declares `window`), and the clock.
func (r *Registry) Build(ps PipelineSpec) (*Pipeline, error) {
	if err := ps.validate(); err != nil {
		return nil, err
	}
	ps = ps.withDefaults()
	tracker, err := r.trackerFor(ps)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{reg: r, tracker: tracker}
	scorer, pol, source, ctrl, err := r.components(ps, p.load, tracker, p.adaptEvents(ps.Name))
	if err != nil {
		return nil, err
	}
	opts, err := r.issuanceOptions(ps)
	if err != nil {
		return nil, err
	}
	opts = append(opts,
		core.WithScorer(scorer),
		core.WithPolicy(pol),
		core.WithSource(source),
		core.WithTracker(tracker),
		core.WithClock(r.now),
		core.WithTTL(time.Duration(ps.TTL)),
		core.WithMaxDifficulty(ps.MaxDifficulty),
		core.WithClockSkew(time.Duration(ps.ClockSkew)),
	)
	if sink := r.pipelineEvents(ps.Name); sink != nil {
		opts = append(opts, core.WithEventSink(sink))
	}
	if ps.Observe != nil {
		opts = append(opts, core.WithObserveTrace(newTraceRing(ps.Observe)))
	}
	switch {
	case ps.ReplayCache > 0:
		opts = append(opts, core.WithReplayCacheSize(ps.ReplayCache))
	case ps.ReplayCache < 0:
		opts = append(opts, core.WithReplayCacheSize(0))
	}
	if ps.AuthCacheSlots > 0 {
		opts = append(opts, core.WithAuthCacheSlots(ps.AuthCacheSlots))
	}
	if ps.BypassBelow != nil {
		opts = append(opts, core.WithBypassBelow(*ps.BypassBelow))
	}
	if ps.FailClosedScore != nil {
		opts = append(opts, core.WithFailClosedScore(*ps.FailClosedScore))
	}
	if ps.EvidenceBuffer != nil {
		opts = append(opts, core.WithEvidenceBuffer(ps.EvidenceBuffer.Size, time.Duration(ps.EvidenceBuffer.Interval)))
	}
	var node *cluster.Node
	if ps.Cluster != nil {
		node, err = cluster.NewNode(cluster.Config{
			Origin:       r.nodeID,
			Exchange:     time.Duration(ps.Cluster.Exchange),
			FilterBits:   ps.Cluster.FilterBits,
			FilterHashes: ps.Cluster.FilterHashes,
			// Retain through the full redemption window — TTL plus skew on
			// both ends — so the freshness check takes over exactly when
			// the filter may forget.
			Retain:     time.Duration(ps.TTL) + 2*time.Duration(ps.ClockSkew),
			Key:        r.pipelineKey(ps.Name),
			DeltaEvery: ps.Cluster.DeltaEvery,
			Now:        r.now,
			Events:     r.pipelineEvents(ps.Name),
		})
		if err != nil {
			return nil, fmt.Errorf("control: pipeline %q cluster: %w", ps.Name, err)
		}
		// The node becomes the verifier's fleet tag filter, and its
		// exchange loop stops with the framework: Pipeline.Close →
		// Framework.Close → registered closers.
		opts = append(opts, core.WithTagExchange(node), core.WithCloser(node.Close))
	}
	fw, err := core.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("control: build pipeline %q: %w", ps.Name, err)
	}
	p.fw = fw
	p.node = node
	p.spec = ps
	if node != nil {
		node.BindLocal(fw, tracker)
		if len(ps.Cluster.Peers) > 0 {
			if err := node.Run(cluster.NewHTTPFetchers(ps.Cluster.Peers, r.pipelineKey(ps.Name), time.Duration(ps.Cluster.Exchange), ps.Cluster.DeltaEvery)); err != nil {
				return nil, fmt.Errorf("control: build pipeline %q: %w", ps.Name, err)
			}
		}
	}
	p.attachControllerLocked(ctrl)
	return p, nil
}
