package control

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/metrics"
	"aipow/internal/obs"
	"aipow/internal/policy"
)

// Gatekeeper is the multi-tenant front of the control plane: it maps
// request classes — path prefixes and tenant keys — onto named pipelines
// built from one DeploymentSpec. Pipelines share the registry's behavior
// tracker by default, so one client's behavioral history follows it
// across route boundaries (pipelines declaring a `window` get a
// per-window tracker instead, shared among same-window pipelines); each
// pipeline signs challenges with its own name-derived key, so a cheap
// solve on a lenient route cannot be redeemed on a stricter one.
//
// Routing state lives in an immutable table behind an atomic pointer:
// Route is one atomic load, a tenant map lookup, and a short
// longest-prefix scan — no locks and no allocations on the request path.
// Apply builds the next table aside and swaps it in whole, so a request
// is always routed by exactly one deployment generation.
type Gatekeeper struct {
	reg *Registry

	mu    sync.Mutex // serializes Apply/Rollback and guards hist
	state atomic.Pointer[gkState]

	// hist is the bounded log of applied deployments (oldest first), the
	// rollback safety net an autonomous controller needs: when an
	// adaptive deployment misbehaves, the operator reverts to a known
	// generation instead of reconstructing it from memory mid-incident.
	hist []SpecHistoryEntry
	seq  int
}

// SpecHistoryEntry is one applied deployment generation.
type SpecHistoryEntry struct {
	// Seq increases monotonically across applies (including ones rotated
	// out of the bounded log).
	Seq int `json:"seq"`

	// AppliedAt is when the generation was installed, on the registry's
	// clock.
	AppliedAt time.Time `json:"applied_at"`

	// Spec is the deployment document as applied. Treat it as read-only.
	Spec *DeploymentSpec `json:"spec"`
}

// SpecHistoryLimit bounds the retained spec history.
const SpecHistoryLimit = 8

// gkState is one immutable deployment generation.
type gkState struct {
	spec      *DeploymentSpec
	pipelines map[string]*Pipeline
	tenants   map[string]*Pipeline
	prefixes  []prefixRoute // sorted longest-prefix-first
	fallback  *Pipeline     // the "/" catch-all target
}

// prefixRoute is one compiled path-prefix route.
type prefixRoute struct {
	prefix string
	p      *Pipeline
}

// NewGatekeeper compiles a deployment spec into a running gatekeeper. A
// single-pipeline spec may omit routes (the pipeline becomes the
// catch-all); otherwise the spec must route "/" somewhere.
func NewGatekeeper(reg *Registry, dep *DeploymentSpec) (*Gatekeeper, error) {
	if reg == nil || dep == nil {
		return nil, fmt.Errorf("control: gatekeeper requires a registry and a deployment spec")
	}
	gk := &Gatekeeper{reg: reg}
	st, err := gk.build(dep, nil)
	if err != nil {
		return nil, err
	}
	gk.state.Store(st)
	gk.record(dep)
	return gk, nil
}

// build compiles dep into a state in two phases: first every pipeline's
// components are resolved (carried-over pipelines with unchanged specs
// are reused untouched; changed-but-swappable specs get their components
// precompiled; the rest are built fresh), and only when the whole
// deployment resolved cleanly are the hot-swaps installed. An error
// therefore leaves every live pipeline — and the route table — exactly
// as it was: no half-applied deployments.
func (gk *Gatekeeper) build(dep *DeploymentSpec, prev *gkState) (*gkState, error) {
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	st := &gkState{
		spec:      dep,
		pipelines: make(map[string]*Pipeline, len(dep.Pipelines)),
		tenants:   make(map[string]*Pipeline),
	}
	type pendingSwap struct {
		p      *Pipeline
		ps     PipelineSpec
		scorer features.VectorScorer
		pol    policy.Policy
		source features.VectorSource
		ctrl   *feedback.Controller
	}
	var pending []pendingSwap
	for _, ps := range dep.Pipelines {
		resolved := ps.withDefaults()
		var built *Pipeline
		if prev != nil {
			if old, ok := prev.pipelines[ps.Name]; ok {
				if old.Spec().swappableEqual(resolved) == nil {
					if old.upToDate(resolved) {
						built = old // unchanged: keep running state intact
					} else {
						scorer, pol, source, ctrl, err := gk.reg.components(resolved, old.load, old.tracker, old.adaptEvents(resolved.Name))
						if err != nil {
							return nil, err
						}
						pending = append(pending, pendingSwap{old, resolved, scorer, pol, source, ctrl})
						built = old
					}
				}
			}
		}
		if built == nil {
			// Building a fresh pipeline has no effect on live traffic
			// until it is routed, so it is safe in the resolve phase.
			p, err := gk.reg.Build(ps)
			if err != nil {
				return nil, err
			}
			built = p
		}
		st.pipelines[ps.Name] = built
	}
	for _, sw := range pending {
		if err := sw.p.applyResolved(sw.ps, sw.scorer, sw.pol, sw.source, sw.ctrl); err != nil {
			return nil, err
		}
	}

	routes := dep.Routes
	if len(routes) == 0 { // single pipeline, implicit catch-all
		routes = []RouteSpec{{PathPrefix: "/", Pipeline: dep.Pipelines[0].Name}}
	}
	for _, r := range routes {
		target := st.pipelines[r.Pipeline] // Validate guaranteed existence
		if r.Tenant != "" {
			st.tenants[r.Tenant] = target
			continue
		}
		st.prefixes = append(st.prefixes, prefixRoute{prefix: r.PathPrefix, p: target})
		if r.PathPrefix == "/" {
			st.fallback = target
		}
	}
	sort.SliceStable(st.prefixes, func(i, j int) bool {
		return len(st.prefixes[i].prefix) > len(st.prefixes[j].prefix)
	})
	return st, nil
}

// Apply reconfigures the whole deployment declaratively: pipelines whose
// specs are unchanged keep running untouched; changed pipelines with
// unchanged limits are hot-swapped in place (zero traffic interruption,
// replay cache preserved); pipelines with changed limits, and new
// pipelines, are rebuilt fresh (their replay windows reset — in-flight
// challenges still verify, because a pipeline's signing key is derived
// from its name and the registry's root key); pipelines absent from the
// new spec are dropped from routing. The route table switches atomically
// to the new generation. On error — reported before anything is
// installed — every live pipeline and the routing state stay exactly as
// they were.
func (gk *Gatekeeper) Apply(dep *DeploymentSpec) error {
	gk.mu.Lock()
	defer gk.mu.Unlock()
	prev := gk.state.Load()
	st, err := gk.build(dep, prev)
	if err != nil {
		return err
	}
	gk.state.Store(st)
	gk.record(dep)
	gk.closeReplaced(prev, st)
	return nil
}

// closeReplaced closes the frameworks of pipelines that did not carry
// from prev into next — rebuilt under the same name, or dropped from the
// deployment — stopping their evidence flush loops so repeated applies
// (powserver's SIGHUP reload) never accumulate goroutines. Closing is
// safe against stragglers: a request still routed by the old generation
// degrades to synchronous evidence writes, it does not fail.
func (gk *Gatekeeper) closeReplaced(prev, next *gkState) {
	for name, old := range prev.pipelines {
		if next.pipelines[name] != old {
			old.Close()
		}
	}
}

// Close stops the background state (evidence flush loops) of every
// pipeline in the current generation. The pipelines keep serving
// correctly — buffered evidence write-back degrades to synchronous — so
// hosts call this on shutdown, after which no framework goroutines
// remain. Idempotent.
func (gk *Gatekeeper) Close() error {
	gk.mu.Lock()
	defer gk.mu.Unlock()
	for _, p := range gk.state.Load().pipelines {
		p.Close()
	}
	return nil
}

// record appends dep to the bounded spec history unless it is
// semantically identical to the latest entry (a no-op re-apply — e.g. a
// SIGHUP against an unchanged file — must not flood the rollback log).
// Callers hold gk.mu.
func (gk *Gatekeeper) record(dep *DeploymentSpec) {
	if n := len(gk.hist); n > 0 && depEqual(gk.hist[n-1].Spec, dep) {
		return
	}
	from := gk.seq
	gk.seq++
	now := gk.reg.now()
	gk.hist = append(gk.hist, SpecHistoryEntry{Seq: gk.seq, AppliedAt: now, Spec: dep})
	if len(gk.hist) > SpecHistoryLimit {
		copy(gk.hist, gk.hist[1:])
		gk.hist = gk.hist[:SpecHistoryLimit]
	}
	if gk.reg.events != nil {
		gk.reg.events(obs.Event{
			At:     now,
			Kind:   obs.EventSpecApply,
			From:   from,
			To:     gk.seq,
			Detail: fmt.Sprintf("%d pipelines, %d routes", len(dep.Pipelines), len(dep.Routes)),
		})
	}
}

// depEqual reports semantic equality of two deployment documents.
func depEqual(a, b *DeploymentSpec) bool {
	return slices.EqualFunc(a.Pipelines, b.Pipelines, specEqual) && slices.Equal(a.Routes, b.Routes)
}

// History returns a copy of the retained applied-spec log, oldest first.
// The entries' Spec documents are shared — treat them as read-only.
func (gk *Gatekeeper) History() []SpecHistoryEntry {
	gk.mu.Lock()
	defer gk.mu.Unlock()
	return append([]SpecHistoryEntry(nil), gk.hist...)
}

// Rollback re-applies the previous deployment generation and pops the
// current one off the history, so consecutive rollbacks keep unwinding
// toward the oldest retained spec. It fails — changing nothing — when no
// previous generation is retained or the previous spec no longer
// compiles (e.g. a component was unregistered).
func (gk *Gatekeeper) Rollback() (*DeploymentSpec, error) {
	gk.mu.Lock()
	defer gk.mu.Unlock()
	if len(gk.hist) < 2 {
		return nil, fmt.Errorf("control: no previous deployment to roll back to")
	}
	prev := gk.hist[len(gk.hist)-2]
	cur := gk.state.Load()
	st, err := gk.build(prev.Spec, cur)
	if err != nil {
		return nil, fmt.Errorf("control: rollback to spec #%d: %w", prev.Seq, err)
	}
	gk.state.Store(st)
	dropped := gk.hist[len(gk.hist)-1]
	gk.hist = gk.hist[:len(gk.hist)-1]
	gk.closeReplaced(cur, st)
	if gk.reg.events != nil {
		gk.reg.events(obs.Event{
			At:   gk.reg.now(),
			Kind: obs.EventSpecRollback,
			From: dropped.Seq,
			To:   prev.Seq,
		})
	}
	return prev.Spec, nil
}

// StepControllers advances every pipeline's feedback controller that is
// due at now, in stable name order. The host calls this from one coarse
// ticker goroutine (powserver's adapt loop); pipelines without adapt
// sections are untouched. All pipelines are stepped even when one
// errors; the first error is returned.
func (gk *Gatekeeper) StepControllers(now time.Time) error {
	st := gk.state.Load()
	var firstErr error
	for _, name := range sortedKeys(st.pipelines) {
		if err := st.pipelines[name].StepController(now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Route reports the framework serving a request class: the tenant route
// if the tenant key matches one, else the longest matching path prefix,
// else the catch-all. It never returns nil and never allocates.
func (gk *Gatekeeper) Route(path, tenant string) *core.Framework {
	return gk.RoutePipeline(path, tenant).Framework()
}

// RoutePipeline is Route returning the pipeline (for stats and specs).
func (gk *Gatekeeper) RoutePipeline(path, tenant string) *Pipeline {
	st := gk.state.Load()
	if tenant != "" {
		if p, ok := st.tenants[tenant]; ok {
			return p
		}
	}
	for _, r := range st.prefixes {
		if strings.HasPrefix(path, r.prefix) {
			return r.p
		}
	}
	return st.fallback
}

// Pipeline reports the named pipeline of the current generation.
func (gk *Gatekeeper) Pipeline(name string) (*Pipeline, bool) {
	p, ok := gk.state.Load().pipelines[name]
	return p, ok
}

// Names reports the current generation's pipeline names, sorted.
func (gk *Gatekeeper) Names() []string {
	return sortedKeys(gk.state.Load().pipelines)
}

// Spec reports the current deployment, reconstructed from each live
// pipeline's applied spec (not the document last passed to Apply), so a
// per-pipeline Pipeline.Apply done directly on a gatekeeper-owned
// pipeline is reflected — an operator can always save GET /spec and
// re-apply it without silently reverting live state.
func (gk *Gatekeeper) Spec() *DeploymentSpec {
	st := gk.state.Load()
	out := &DeploymentSpec{
		Pipelines: make([]PipelineSpec, 0, len(st.spec.Pipelines)),
		Routes:    append([]RouteSpec(nil), st.spec.Routes...),
	}
	for _, ps := range st.spec.Pipelines { // declaration order
		if p, ok := st.pipelines[ps.Name]; ok {
			out.Pipelines = append(out.Pipelines, p.Spec())
		}
	}
	return out
}

// ExpositionInto contributes the whole deployment's metrics to e in
// Prometheus exposition form: every pipeline's serving counters
// (aipow_issued{pipeline="web"} …), its serving-path latency histograms
// (aipow_serving_latency_ms with a stage label), its decision-trace ring
// counters when tracing is on, and — where the spec declares them — the
// adapt controller's level/signal gauges and swap counters, the behavior
// tracker's occupancy gauges (entries, capacity, slab utilization,
// evictions), the replay cache's evictions of unexpired seeds, and the
// cluster plane's exchange and frame counters. node,
// when non-empty, labels every series with the fleet member's name.
func (gk *Gatekeeper) ExpositionInto(e *metrics.Exposition, node string) {
	st := gk.state.Load()
	for _, name := range sortedKeys(st.pipelines) {
		p := st.pipelines[name]
		labels := make([]metrics.Label, 0, 2)
		labels = append(labels, metrics.Label{Name: "pipeline", Value: name})
		if node != "" {
			labels = append(labels, metrics.Label{Name: "node", Value: node})
		}
		fw := p.Framework()
		fw.StatsExpositionInto(e, "aipow_", labels...)
		fw.LatencyExpositionInto(e, "aipow_serving_latency_ms",
			"serving-path stage latency in milliseconds", labels...)
		if t := fw.TraceRing(); t != nil {
			e.Add(metrics.TypeCounter, "aipow_trace_sampled", "decisions recorded into the trace ring",
				float64(t.Recorded()), labels...)
		}
		if ctrl := p.Controller(); ctrl != nil {
			stats := make(map[string]float64, 16)
			ctrl.StatsPrefixInto("", stats)
			for _, k := range sortedKeys(stats) {
				typ := metrics.TypeGauge // level and the live signal estimates
				if k == "swaps" || k == "escalations" {
					typ = metrics.TypeCounter
				}
				e.Add(typ, "aipow_adapt_"+k, "adapt controller "+k, stats[k], labels...)
			}
		}
		if t := p.tracker; t != nil {
			ts := t.StatsSnapshot()
			e.Add(metrics.TypeGauge, "aipow_tracker_entries", "tracked client IPs", float64(ts.Entries), labels...)
			e.Add(metrics.TypeGauge, "aipow_tracker_capacity", "tracked-IP eviction capacity", float64(ts.Capacity), labels...)
			e.Add(metrics.TypeGauge, "aipow_tracker_slab_slots", "slab slots allocated across shards", float64(ts.Slots), labels...)
			e.Add(metrics.TypeGauge, "aipow_tracker_slab_utilization", "live entries per allocated slab slot", ts.Utilization(), labels...)
			e.Add(metrics.TypeCounter, "aipow_tracker_evictions", "LRU evictions of tracked IPs", float64(ts.Evictions), labels...)
		}
		if rc := fw.ReplayCache(); rc != nil {
			e.Add(metrics.TypeCounter, "aipow_replay_evictions", "replay-cache evictions of unexpired seeds (each reopens a redeemed token)", float64(rc.LiveEvictions()), labels...)
		}
		if n := p.ClusterNode(); n != nil {
			cs := n.Stats()
			e.Add(metrics.TypeGauge, "aipow_cluster_peers", "known fleet peers", float64(cs.Peers), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_filter_hits", "serving-path rejections from the fleet filter", float64(cs.FilterHits), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_exchanges", "completed exchange pulls", float64(cs.Exchanges), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_absorbs", "frames folded in", float64(cs.Absorbs), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_absorb_errors", "failed exchange pulls", float64(cs.AbsorbErrs), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_frames_full", "full anti-entropy evidence frames served", float64(cs.FullFrames), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_frames_delta", "delta evidence frames served", float64(cs.DeltaFrames), labels...)
			e.Add(metrics.TypeCounter, "aipow_cluster_frame_rows", "evidence rows exported across served frames", float64(cs.FrameRows), labels...)
		}
	}
}

// TraceSnapshots exports every pipeline's retained decision traces,
// keyed by pipeline name; pipelines without an observe section are
// omitted. This is the GET /trace read path.
func (gk *Gatekeeper) TraceSnapshots() map[string][]obs.TraceSample {
	st := gk.state.Load()
	out := make(map[string][]obs.TraceSample, len(st.pipelines))
	for name, p := range st.pipelines {
		if t := p.Framework().TraceRing(); t != nil {
			out[name] = t.Snapshot()
		}
	}
	return out
}

// StatsInto adds every pipeline's counters — and, for pipelines with an
// adapt section, the controller's level, swap counts, and live signal
// estimates under "<pipeline>.adapt.*", plus tracker occupancy under
// "<pipeline>.tracker.*", the replay cache's evictions of unexpired
// seeds under "<pipeline>.replay.evictions", and cluster counters under
// "<pipeline>.cluster.*" — into dst under namespaced keys.
// Reusing dst across polls means no maps are allocated per scrape; the
// namespaced key strings still allocate (this is the admin scrape path,
// not the serving hot path).
func (gk *Gatekeeper) StatsInto(dst map[string]float64) {
	st := gk.state.Load()
	for name, p := range st.pipelines {
		p.Framework().StatsPrefixInto(name+".", dst)
		if ctrl := p.Controller(); ctrl != nil {
			ctrl.StatsPrefixInto(name+".adapt.", dst)
		}
		if t := p.tracker; t != nil {
			ts := t.StatsSnapshot()
			dst[name+".tracker.entries"] = float64(ts.Entries)
			dst[name+".tracker.capacity"] = float64(ts.Capacity)
			dst[name+".tracker.slab_slots"] = float64(ts.Slots)
			dst[name+".tracker.slab_utilization"] = ts.Utilization()
			dst[name+".tracker.evictions"] = float64(ts.Evictions)
		}
		if rc := p.Framework().ReplayCache(); rc != nil {
			dst[name+".replay.evictions"] = float64(rc.LiveEvictions())
		}
		if node := p.ClusterNode(); node != nil {
			cs := node.Stats()
			dst[name+".cluster.peers"] += float64(cs.Peers)
			dst[name+".cluster.filter_hits"] += float64(cs.FilterHits)
			dst[name+".cluster.exchanges"] += float64(cs.Exchanges)
			dst[name+".cluster.absorbs"] += float64(cs.Absorbs)
			dst[name+".cluster.absorb_errors"] += float64(cs.AbsorbErrs)
			dst[name+".cluster.frames_full"] += float64(cs.FullFrames)
			dst[name+".cluster.frames_delta"] += float64(cs.DeltaFrames)
			dst[name+".cluster.frame_rows"] += float64(cs.FrameRows)
		}
	}
}
