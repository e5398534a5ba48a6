package control

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aipow/internal/cluster"
	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/obs"
	"aipow/internal/policy"
)

// Pipeline is one runnable, hot-reconfigurable serving pipeline: a
// core.Framework plus the spec it was compiled from, the registry that
// resolves revisions of it, and — when the spec declares an adapt section
// — the feedback controller closing the defense loop over it. The serving
// methods (Framework().Decide / Verify / Observe) stay allocation-free;
// Apply installs a revised spec atomically against them.
type Pipeline struct {
	reg *Registry
	fw  *core.Framework

	// tracker is the behavior tracker the pipeline was built over (the
	// registry's shared one, or a per-window tracker when the spec
	// declares `window`). Fixed for the pipeline's lifetime — changing
	// the window rebuilds the pipeline — and used by Apply to rebuild
	// sources over the same behavioral state.
	tracker *features.Tracker

	// node is the pipeline's cluster-plane member (nil without a cluster
	// section). Like the tracker it is build-time state: the verifier
	// holds it as its fleet tag filter, so changing the cluster section
	// rebuilds the pipeline; its exchange loop stops via a framework
	// closer when the pipeline closes.
	node *cluster.Node

	mu   sync.Mutex // guards spec/swapsAt against concurrent Apply
	spec PipelineSpec

	// swapsAt is the framework's swap-generation counter as of the last
	// spec install. A mismatch means someone called Framework.Swap
	// directly (e.g. an emergency override); re-applying the spec then
	// restores the declared configuration instead of no-opping.
	// Controller-installed escalations go through controllerSwap, which
	// keeps the counter in sync: adaptive repricing is declared behavior,
	// not divergence.
	swapsAt uint64

	// ctrl is the attached feedback controller (nil without an adapt
	// section), behind an atomic pointer so the load indirection on the
	// serving hot path never takes a lock.
	ctrl atomic.Pointer[feedback.Controller]
}

// Name reports the pipeline's spec name.
func (p *Pipeline) Name() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spec.Name
}

// Spec reports the currently applied spec (defaults resolved).
func (p *Pipeline) Spec() PipelineSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spec
}

// Framework exposes the underlying serving pipeline. The pointer is
// stable across Apply calls — hold it for the process lifetime.
func (p *Pipeline) Framework() *core.Framework { return p.fw }

// Close stops the pipeline's background state — the framework's evidence
// flush loop, when the spec declares an evidence-buffer section — and
// drains any buffered evidence into the tracker. The pipeline keeps
// serving correctly afterward (evidence writes degrade to synchronous);
// Gatekeeper.Apply calls this on pipelines it replaces or drops.
// Idempotent.
func (p *Pipeline) Close() error { return p.fw.Close() }

// Controller reports the attached feedback controller, nil when the spec
// declares no adapt section.
func (p *Pipeline) Controller() *feedback.Controller { return p.ctrl.Load() }

// ClusterNode reports the pipeline's distributed-defense-plane member,
// nil when the spec declares no cluster section. Hosts mount its Handler
// on the peer-exchange listener; the simulation engine exchanges nodes
// directly.
func (p *Pipeline) ClusterNode() *cluster.Node { return p.node }

// StatsInto adds the pipeline's framework counters into dst without
// allocating a fresh map (see core.Framework.StatsInto), plus the
// cluster plane's exchange counters when the pipeline has one.
func (p *Pipeline) StatsInto(dst map[string]float64) {
	p.fw.StatsInto(dst)
	if p.node != nil {
		cs := p.node.Stats()
		dst["cluster.peers"] += float64(cs.Peers)
		dst["cluster.filter_hits"] += float64(cs.FilterHits)
		dst["cluster.exchanges"] += float64(cs.Exchanges)
		dst["cluster.absorbs"] += float64(cs.Absorbs)
		dst["cluster.absorb_errors"] += float64(cs.AbsorbErrs)
		dst["cluster.frames_full"] += float64(cs.FullFrames)
		dst["cluster.frames_delta"] += float64(cs.DeltaFrames)
		dst["cluster.frame_rows"] += float64(cs.FrameRows)
	}
}

// load is the pipeline's policy.LoadFunc: the current controller's load
// estimate, 0 without one. It is a stable indirection — load-shifted
// policies capture the method once and keep reading the live signal
// plane across controller rebuilds — and costs two atomic loads on the
// serving path.
func (p *Pipeline) load() float64 {
	if c := p.ctrl.Load(); c != nil {
		return c.Sampler().Load()
	}
	return 0
}

// StepController advances the pipeline's feedback controller if one is
// attached and its interval has elapsed. Hosts drive this from a coarse
// ticker (powserver's adapt loop); the simulation engine steps its
// controller directly.
func (p *Pipeline) StepController(now time.Time) error {
	ctrl := p.ctrl.Load()
	if ctrl == nil {
		return nil
	}
	_, err := ctrl.MaybeStep(now)
	return err
}

// controllerSwap installs a controller-chosen policy, keeping the
// swap-generation bookkeeping consistent so re-applying the (unchanged)
// spec does not read the escalation as operator divergence and reset it.
// A controller detached by a concurrent Apply is ignored: the new
// deployment generation owns the pipeline now.
func (p *Pipeline) controllerSwap(from *feedback.Controller, pol policy.Policy) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ctrl.Load() != from {
		return nil
	}
	if err := p.fw.SwapPolicy(pol); err != nil {
		return err
	}
	p.swapsAt = p.fw.Swaps()
	return nil
}

// pipelineTarget routes a controller's swaps through its pipeline.
type pipelineTarget struct {
	p    *Pipeline
	ctrl *feedback.Controller
}

// SwapPolicy implements feedback.Target.
func (t pipelineTarget) SwapPolicy(pol policy.Policy) error {
	return t.p.controllerSwap(t.ctrl, pol)
}

// adaptEvents is the sink a pipeline's feedback controller emits level
// transitions into: the framework's trace rung follows the level (so
// sampled traces record the rung they were decided under), and the
// registry's event sink — when one is configured — receives the event
// stamped with the pipeline name. Safe to build before p.fw is set: the
// controller only steps once the pipeline is fully assembled.
func (p *Pipeline) adaptEvents(name string) obs.Sink {
	sink := p.reg.events
	return func(e obs.Event) {
		p.fw.SetTraceRung(e.To)
		if sink != nil {
			e.Pipeline = name
			sink(e)
		}
	}
}

// attachControllerLocked installs (or clears) the pipeline's controller
// and binds it to the pipeline's swap path and counter source. A
// clustered pipeline binds the controller to its local counters summed
// with the fleet's peer-reported ones, so the adapt ladder fires on
// cluster-wide rate — per-node signals would divide an attack's strength
// by the fleet size. Callers hold p.mu or own p exclusively (Build).
func (p *Pipeline) attachControllerLocked(ctrl *feedback.Controller) {
	p.ctrl.Store(ctrl)
	if ctrl != nil {
		var src feedback.Source = p.fw
		if p.node != nil {
			src = feedback.NewSumSource(p.fw, p.node.PeerSource())
		}
		ctrl.Bind(pipelineTarget{p: p, ctrl: ctrl}, src)
	}
}

// Apply hot-swaps the pipeline onto a revised spec: the scorer, policy,
// source, bypass threshold, fail-closed score, and adapt section are
// recompiled and installed in one atomic snapshot swap, with zero
// interruption to concurrent Decide/Verify traffic. An effectively
// identical spec is a no-op, so re-applying a deployment never resets
// stateful components — including an escalated feedback controller —
// unless a direct Framework.Swap diverged the live configuration from
// the spec (detected via the swap-generation counter), in which case
// re-applying restores the declared state. An Apply that does change the
// pipeline rebuilds its controller at base level: the declared spec wins
// over accumulated escalation state, and the controller re-escalates if
// the signals still demand it.
// The spec's name and its non-hot-swappable fields (ttl, max-difficulty,
// replay-cache, clock-skew — state the issuer/verifier own) must match
// the current spec; changing those needs a rebuilt pipeline
// (Gatekeeper.Apply does this automatically, at the cost of resetting
// the replay cache).
//
// A failed Apply leaves the running configuration untouched.
func (p *Pipeline) Apply(ps PipelineSpec) error {
	if err := ps.validate(); err != nil {
		return err
	}
	ps = ps.withDefaults()
	p.mu.Lock()
	defer p.mu.Unlock()
	if ps.Name != p.spec.Name {
		return fmt.Errorf("control: apply renames pipeline %q to %q; build a new pipeline instead", p.spec.Name, ps.Name)
	}
	if err := p.spec.swappableEqual(ps); err != nil {
		return fmt.Errorf("control: pipeline %q: %v is not hot-swappable; rebuild required", ps.Name, err)
	}
	if specEqual(p.spec, ps) && p.fw.Swaps() == p.swapsAt {
		return nil
	}
	scorer, pol, source, ctrl, err := p.reg.components(ps, p.load, p.tracker, p.adaptEvents(ps.Name))
	if err != nil {
		return err
	}
	return p.installLocked(ps, scorer, pol, source, ctrl)
}

// installLocked swaps pre-resolved components in under p.mu. Split from
// Apply so Gatekeeper.Apply can resolve every pipeline's components
// before installing any of them (no half-applied deployments).
func (p *Pipeline) installLocked(ps PipelineSpec, scorer features.VectorScorer, pol policy.Policy, source features.VectorSource, ctrl *feedback.Controller) error {
	failClosed := policy.MaxScore
	if ps.FailClosedScore != nil {
		failClosed = *ps.FailClosedScore
	}
	bypass := -1.0
	if ps.BypassBelow != nil {
		bypass = *ps.BypassBelow
	}
	swaps := []core.SwapOption{
		core.SetScorer(scorer),
		core.SetPolicy(pol),
		core.SetSource(source),
		core.SetFailClosedScore(failClosed),
		core.SetBypassBelow(bypass),
	}
	// The trace ring is rebuilt only when the observe section changed: an
	// unrelated apply keeps the running ring (and its retained samples),
	// and a removed section disables tracing with SetTrace(nil).
	if !p.spec.Observe.equal(ps.Observe) {
		swaps = append(swaps, core.SetTrace(newTraceRing(ps.Observe)))
	}
	if err := p.fw.Swap(swaps...); err != nil {
		return err
	}
	p.spec = ps
	p.swapsAt = p.fw.Swaps()
	p.attachControllerLocked(ctrl)
	return nil
}

// upToDate reports whether the pipeline already runs exactly ps: the
// spec matches and no out-of-band Framework.Swap has diverged the live
// configuration since the last install.
func (p *Pipeline) upToDate(ps PipelineSpec) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return specEqual(p.spec, ps) && p.fw.Swaps() == p.swapsAt
}

// applyResolved is installLocked behind the spec mutex.
func (p *Pipeline) applyResolved(ps PipelineSpec, scorer features.VectorScorer, pol policy.Policy, source features.VectorSource, ctrl *feedback.Controller) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(ps, scorer, pol, source, ctrl)
}
