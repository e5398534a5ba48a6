// Package control is the framework's runtime control plane: declarative
// deployment specifications, a component registry that compiles them into
// runnable pipelines, and a gatekeeper that routes request classes onto
// named pipelines — all hot-swappable while the serving path keeps running
// allocation-free.
//
// The paper's framing is that operators tune defense by swapping policies,
// not redeploying code. This package extends that from the policy to the
// whole pipeline: a Spec names the scorer, policy, source, TTL, difficulty
// cap, bypass threshold, and limits in a short text (or JSON) document;
// Registry.Build compiles it into a *Pipeline around a core.Framework; and
// Pipeline.Apply / Gatekeeper.Apply install a revised spec atomically
// against live traffic (RCU snapshot swap in core, immutable route-table
// swap here). Long-lived shared state — the behavior tracker and the HMAC
// key — lives in the Registry and persists across every apply.
package control

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"aipow/internal/feedback"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("30s") in JSON specs and accepts either a string or integer nanoseconds
// when unmarshaling, so text and JSON spec forms stay interconvertible.
type Duration time.Duration

// String renders the duration like time.Duration: "30s".
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON accepts "30s"-style strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return json.Unmarshal(data, (*int64)(d))
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("control: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// PipelineSpec declares one runnable pipeline: which components serve a
// request class and under what limits. Scorer, Policy and Source use the
// shared component-spec syntax "name" or "name(k=v,k2=v2)"; names resolve
// against the Registry the spec is built with.
type PipelineSpec struct {
	// Name identifies the pipeline (route targets, logs, stats).
	Name string `json:"name"`

	// Scorer is the AI-model spec, e.g. "dabr" or
	// "hybrid(inner=dabr, saturation=4)". Required.
	Scorer string `json:"scorer"`

	// Policy is the score→difficulty policy as a policy.Parse spec, e.g.
	// "policy2" or "policy3(epsilon=2.5)". Exactly one of Policy and
	// PolicyRules must be set.
	Policy string `json:"policy,omitempty"`

	// PolicyRules is an inline policy program in the rule DSL ("when score
	// >= 8 use 14 / default 3" lines). In the text spec form, bare when/
	// default lines inside a pipeline block land here.
	PolicyRules string `json:"policy_rules,omitempty"`

	// Source is the attribute-source spec (default "tracker", the live
	// behavior tracker alone). Deployments with a static feed register and
	// name richer sources, e.g. "combined".
	Source string `json:"source,omitempty"`

	// Puzzle selects the pipeline's puzzle backend in the puzzle package's
	// spec syntax: "hashcash(bits=22)" or "balloon(space=256, time=2)"
	// (empty = the default hashcash backend). Every backend issues one
	// token format with its backend byte under the MAC. Each pipeline
	// signs with its own derived key, so a solution minted on one route
	// never redeems on another regardless of backend. Not hot-swappable:
	// the backend is pinned into the issuer and verifier at build time, so
	// changing it rebuilds the pipeline (in-flight challenges from the old
	// backend stop verifying — fail-closed, like a key rotation).
	Puzzle string `json:"puzzle,omitempty"`

	// TrackerWindow gives the pipeline its own behavior tracker with this
	// sliding-window span instead of the registry's shared default-window
	// tracker — so one deployment can pair a short-memory window on a
	// login route with a long one on the frontend. Pipelines declaring
	// equal windows share one tracker (behavioral history still follows a
	// client across those routes); the zero value keeps the shared
	// default. Not hot-swappable: the tracker is wired into the framework
	// at build time, so changing it rebuilds the pipeline.
	TrackerWindow Duration `json:"window,omitempty"`

	// TTL is the challenge lifetime (0 = puzzle.DefaultTTL). Not
	// hot-swappable: it lives in the issuer.
	TTL Duration `json:"ttl,omitempty"`

	// MaxDifficulty caps what the issuer signs (0 = 22). The compiled
	// policy is clamped to [1, MaxDifficulty] so a worst-score client
	// still receives a challenge rather than an error. Not hot-swappable.
	MaxDifficulty int `json:"max_difficulty,omitempty"`

	// BypassBelow lets requests scoring strictly under it skip the puzzle;
	// nil or negative disables. Hot-swappable.
	BypassBelow *float64 `json:"bypass_below,omitempty"`

	// FailClosedScore is the score assumed when the scorer errors (nil =
	// 10, maximally suspicious). Hot-swappable.
	FailClosedScore *float64 `json:"fail_closed_score,omitempty"`

	// ReplayCache bounds the single-use seed cache (0 = 1<<16, negative
	// disables replay protection). Not hot-swappable.
	ReplayCache int `json:"replay_cache,omitempty"`

	// AuthCacheSlots sizes the issuer/verifier authenticated-challenge
	// cache (0 = 2048; rounded up to a power of two, clamped to
	// [64, 1<<22]). Size toward ≥ 10× the challenges outstanding at any
	// instant; a miss only costs an HMAC recomputation. Not hot-swappable.
	AuthCacheSlots int `json:"auth_cache,omitempty"`

	// ClockSkew is the verifier's tolerance for clock drift (0 = 2s). Not
	// hot-swappable.
	ClockSkew Duration `json:"clock_skew,omitempty"`

	// Adapt attaches a closed-loop feedback controller to the pipeline:
	// live signal estimation driving automatic policy escalation. Nil
	// leaves the pipeline purely operator-driven. Hot-swappable — but an
	// Apply that changes the pipeline also resets the controller to its
	// base level (the declared spec always wins over accumulated
	// escalation state).
	Adapt *AdaptSpec `json:"adapt,omitempty"`

	// Redeem wraps the pipeline's scorer with behavioral redemption
	// (reputation.Decay): sustained verified-solve evidence earns a
	// bounded, decaying score attenuation, closing the false-positive
	// tail. The scorer spec must resolve to a vector-capable scorer. Max
	// and half-credit are hot-swappable; half-life is the evidence decay
	// horizon of the pipeline's behavior tracker and therefore rebuilds
	// the pipeline when changed (pipelines declaring the same window and
	// half-life share a tracker).
	Redeem *RedeemSpec `json:"redeem,omitempty"`

	// EvidenceBuffer enables buffered evidence write-back on the
	// pipeline's framework (core.WithEvidenceBuffer): Observe and the
	// verification evidence append to per-shard buffers flushed in the
	// background, taking tracker shard locks off the serving path. Not
	// hot-swappable: the flush loop is wired at build time.
	EvidenceBuffer *BufferSpec `json:"evidence_buffer,omitempty"`

	// Observe configures the pipeline's sampled decision tracing. Nil
	// disables tracing (the serving path then pays one nil-check per
	// decision). Hot-swappable: the trace ring lives in the framework's
	// RCU snapshot, so an Apply that only changes this section is a plain
	// snapshot swap.
	Observe *ObserveSpec `json:"observe,omitempty"`

	// Cluster joins the pipeline to the distributed defense plane: a
	// cluster.Node is built alongside the framework, wired as the
	// verifier's fleet tag filter, bound to the pipeline's tracker for
	// evidence gossip, and summed into the adapt controller's sampler so
	// escalation fires on cluster-wide rates. Nil keeps the pipeline
	// standalone with zero behavior change. Not hot-swappable: the node
	// is pinned into the verifier at build time, like ttl — changing it
	// rebuilds the pipeline.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
}

// RedeemSpec is a pipeline's behavioral-redemption section. In the text
// DSL it is a single `redeem(max=6, half-credit=26, half-life=5m)` line;
// every parameter is optional (zero keeps the reputation package's or the
// tracker's default).
type RedeemSpec struct {
	// Max caps the score attenuation evidence can earn
	// (0 = reputation.DefaultMaxRedemption). Hot-swappable.
	Max float64 `json:"max,omitempty"`

	// HalfCredit is the solve credit at which half the maximum redemption
	// applies (0 = reputation.DefaultHalfCredit). Hot-swappable.
	HalfCredit float64 `json:"half_credit,omitempty"`

	// HalfLife is the solve-credit decay half-life, state owned by the
	// pipeline's behavior tracker (0 = the registry tracker's half-life).
	// Not hot-swappable: changing it keys the pipeline onto a different
	// tracker.
	HalfLife Duration `json:"half_life,omitempty"`
}

// BufferSpec is a pipeline's evidence write-back section: the per-shard
// buffer size bound and the background flush interval. In the text DSL it
// is an `evidence-buffer <size> <interval>` line.
type BufferSpec struct {
	Size     int      `json:"size"`
	Interval Duration `json:"interval"`
}

// ObserveSpec is a pipeline's observability section. In the text DSL it
// is a single line of parenthesized groups:
//
//	observe trace(sample=1024, ring=256)
//
// Trace samples one decision in TraceSample (rounded up to a power of
// two so the sampling draw is one atomic add and a mask) into a
// lock-free ring of TraceRing records (also rounded to a power of two).
type ObserveSpec struct {
	// TraceSample is the decision sampling rate: one trace record per
	// TraceSample decisions (0 = obs.DefaultTraceSample, 1 = every
	// decision).
	TraceSample int `json:"trace_sample,omitempty"`

	// TraceRing is the trace ring capacity in records
	// (0 = obs.DefaultTraceRingSize).
	TraceRing int `json:"trace_ring,omitempty"`
}

// ClusterSpec is a pipeline's distributed-defense section. In the text
// DSL it is a single line of parenthesized groups, each optional:
//
//	cluster peers(http://10.0.0.2:9100/cluster/edge, …) exchange(1s) filter(bits=1048576, hashes=4)
//
// Peers lists the exchange endpoints this node pulls frames from (its
// partial view of the fleet — gossip converges transitively, so every
// node need not list every other). Exchange is the pull interval, the
// bounded staleness of fleet knowledge. Filter declares the Bloom
// geometry, which all fleet members must share for their rings to merge.
// Delta (delta(every=<k>)) turns the node's pulls into delta pulls —
// only evidence rows changed since the last pull — with a full-frame
// anti-entropy pull every kth exchange; omitted, every pull is a full
// frame.
type ClusterSpec struct {
	Peers        []string `json:"peers,omitempty"`
	Exchange     Duration `json:"exchange,omitempty"`
	FilterBits   int      `json:"filter_bits,omitempty"`
	FilterHashes int      `json:"filter_hashes,omitempty"`
	DeltaEvery   int      `json:"delta_every,omitempty"`
}

// AdaptSpec is a pipeline's adaptive-defense section: the signal-plane
// shape plus the escalation ladder, in the declarative rule grammar (see
// feedback.ParseRule). In the text DSL these are `adapt <setting>` lines
// inside the pipeline block.
type AdaptSpec struct {
	// Interval is the controller's step cadence (0 = 1s).
	Interval Duration `json:"interval,omitempty"`

	// Capacity is the decision rate (decisions/s) treated as full load
	// for the "load" signal — and for load-adaptive policies via
	// load-shift. 0 pins load to 0.
	Capacity float64 `json:"capacity,omitempty"`

	// Hard marks challenges at or above this difficulty as "hard" for the
	// hard_solve_frac false-positive proxy (0 = 12).
	Hard int `json:"hard,omitempty"`

	// Window is the sliding-window length of the signal estimators, in
	// controller steps (0 = 10).
	Window int `json:"window,omitempty"`

	// LoadShift, when positive, wraps every policy the pipeline compiles
	// (the declared one and each escalation rung) in a load-adaptive
	// shift of up to this many difficulty levels at full load, fed by the
	// signal plane — the spec-addressable form of policy.NewLoadAdaptive.
	LoadShift int `json:"load_shift,omitempty"`

	// Rules is the escalation ladder in level order:
	// "escalate(when=<cond>, policy=<spec>[, hold=<dur>][, after=<n>][, unless=<cond>])".
	Rules []string `json:"rules,omitempty"`
}

// RouteSpec maps one request class onto a pipeline. Exactly one of
// PathPrefix and Tenant must be set.
type RouteSpec struct {
	// PathPrefix routes requests whose path starts with it; the longest
	// matching prefix wins. "/" is the catch-all.
	PathPrefix string `json:"path_prefix,omitempty"`

	// Tenant routes requests carrying this tenant key (e.g. from a
	// middleware-extracted header); tenant routes win over path routes.
	Tenant string `json:"tenant,omitempty"`

	// Pipeline names the PipelineSpec that serves the class.
	Pipeline string `json:"pipeline"`
}

// DeploymentSpec is the full control-plane document: named pipelines plus
// the routes mapping request classes onto them. A single-pipeline spec may
// omit Routes (an implicit "/" catch-all to that pipeline is assumed);
// otherwise a "/" catch-all route is required so no request can miss.
type DeploymentSpec struct {
	Pipelines []PipelineSpec `json:"pipelines"`
	Routes    []RouteSpec    `json:"routes,omitempty"`
}

// Pipeline looks up a pipeline spec by name.
func (d *DeploymentSpec) Pipeline(name string) (PipelineSpec, bool) {
	for _, p := range d.Pipelines {
		if p.Name == name {
			return p, true
		}
	}
	return PipelineSpec{}, false
}

// Validate rejects structurally inconsistent deployments: duplicate or
// missing names, routes onto unknown pipelines, no catch-all, and
// per-pipeline field errors.
func (d *DeploymentSpec) Validate() error {
	if len(d.Pipelines) == 0 {
		return fmt.Errorf("control: deployment declares no pipelines")
	}
	seen := make(map[string]bool, len(d.Pipelines))
	for i := range d.Pipelines {
		p := &d.Pipelines[i]
		if err := p.validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("control: duplicate pipeline %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(d.Routes) == 0 {
		if len(d.Pipelines) > 1 {
			return fmt.Errorf("control: %d pipelines but no routes; add route lines (including a \"/\" catch-all)", len(d.Pipelines))
		}
		return nil
	}
	catchAll := false
	routed := make(map[RouteSpec]bool, len(d.Routes))
	for _, r := range d.Routes {
		switch {
		case r.PathPrefix == "" && r.Tenant == "":
			return fmt.Errorf("control: route onto %q has neither path prefix nor tenant", r.Pipeline)
		case r.PathPrefix != "" && r.Tenant != "":
			return fmt.Errorf("control: route onto %q sets both path prefix and tenant; use two routes", r.Pipeline)
		case r.PathPrefix != "" && !strings.HasPrefix(r.PathPrefix, "/"):
			return fmt.Errorf("control: path prefix %q must start with /", r.PathPrefix)
		}
		if !seen[r.Pipeline] {
			return fmt.Errorf("control: route %s targets unknown pipeline %q", routeLabel(r), r.Pipeline)
		}
		key := RouteSpec{PathPrefix: r.PathPrefix, Tenant: r.Tenant}
		if routed[key] {
			return fmt.Errorf("control: duplicate route %s", routeLabel(r))
		}
		routed[key] = true
		catchAll = catchAll || r.PathPrefix == "/"
	}
	if !catchAll {
		return fmt.Errorf("control: no catch-all route; add `route / <pipeline>`")
	}
	return nil
}

// routeLabel renders a route for error messages.
func routeLabel(r RouteSpec) string {
	if r.Tenant != "" {
		return fmt.Sprintf("tenant %q", r.Tenant)
	}
	return fmt.Sprintf("path %q", r.PathPrefix)
}

// validate rejects malformed pipeline specs: the statement table's lower
// bounds, then the rules that span fields.
func (p *PipelineSpec) validate() error {
	if p.Name == "" {
		return fmt.Errorf("control: pipeline without a name")
	}
	if p.Scorer == "" {
		return fmt.Errorf("control: pipeline %q names no scorer", p.Name)
	}
	switch {
	case p.Policy == "" && p.PolicyRules == "":
		return fmt.Errorf("control: pipeline %q names no policy (add `policy <spec>` or when/default rule lines)", p.Name)
	case p.Policy != "" && p.PolicyRules != "":
		return fmt.Errorf("control: pipeline %q declares both a policy spec and inline rules; pick one", p.Name)
	}
	for i := range statements {
		r := &statements[i]
		if r.field == "" {
			continue
		}
		if v, present := r.value(p, false); present {
			section, param, nested := strings.Cut(r.name, ".")
			if !nested {
				section, param = "", section
			} else {
				section = " " + section
			}
			f := policy.Field{Name: strings.ReplaceAll(param, ".", " "), Min: r.min, Dst: v.Addr().Interface()}
			if err := f.Check(); err != nil {
				return fmt.Errorf("control: pipeline %q%s: %w", p.Name, section, err)
			}
		}
	}
	if _, err := puzzle.ParseBackendSpec(p.Puzzle); err != nil {
		return fmt.Errorf("control: pipeline %q puzzle: %w", p.Name, err)
	}
	if p.FailClosedScore != nil && (*p.FailClosedScore < 0 || *p.FailClosedScore > 10) {
		return fmt.Errorf("control: pipeline %q fail-closed score %v outside [0, 10]", p.Name, *p.FailClosedScore)
	}
	if b := p.EvidenceBuffer; b != nil && b.Interval <= 0 {
		return fmt.Errorf("control: pipeline %q evidence-buffer: non-positive interval %v", p.Name, time.Duration(b.Interval))
	}
	if c := p.Cluster; c != nil {
		switch {
		case c.FilterBits != 0 && (c.FilterBits < 64 || c.FilterBits&(c.FilterBits-1) != 0):
			return fmt.Errorf("control: pipeline %q cluster: filter bits %d must be a power of two ≥ 64", p.Name, c.FilterBits)
		case c.FilterHashes > 16:
			return fmt.Errorf("control: pipeline %q cluster: filter hashes %d outside [0, 16]", p.Name, c.FilterHashes)
		case slices.ContainsFunc(c.Peers, func(peer string) bool { return strings.TrimSpace(peer) == "" }):
			return fmt.Errorf("control: pipeline %q cluster: empty peer URL", p.Name)
		}
	}
	if a := p.Adapt; a != nil {
		return a.validate(p.Name)
	}
	return nil
}

// validate checks an adapt section's rules: it must escalate or shift, and
// anything reading the load signal needs a declared capacity.
func (a *AdaptSpec) validate(pipeline string) error {
	if len(a.Rules) == 0 && a.LoadShift == 0 {
		return fmt.Errorf("control: pipeline %q adapt: declares neither escalate rules nor load-shift", pipeline)
	}
	// The load signal is rate/capacity; without a declared capacity it is
	// pinned to 0, so a load-shift or load-conditioned rule would be
	// silently inert — reject rather than deploy a defense that can never
	// engage.
	needsLoad := a.LoadShift > 0
	for _, spec := range a.Rules {
		rule, err := feedback.ParseRule(spec)
		if err != nil {
			return fmt.Errorf("control: pipeline %q adapt: %w", pipeline, err)
		}
		if rule.When.Signal == feedback.SignalLoad ||
			(rule.Unless != nil && rule.Unless.Signal == feedback.SignalLoad) {
			needsLoad = true
		}
	}
	if needsLoad && a.Capacity <= 0 {
		return fmt.Errorf("control: pipeline %q adapt: load-shift and load-conditioned rules require `adapt capacity <decisions/s>`", pipeline)
	}
	return nil
}

// canonicalPuzzle resolves a puzzle backend spec to its canonical render,
// so comparisons treat "" , "hashcash" and "hashcash(bits=64)" as the one
// backend they all name. Specs that fail to parse compare raw; validate()
// already rejected them everywhere it matters.
func canonicalPuzzle(spec string) string {
	b, err := puzzle.ParseBackendSpec(spec)
	if err != nil {
		return spec
	}
	return b.Spec()
}

// specEqual reports whether two (defaults-resolved) specs are identical
// in effect. Applies skip identical specs entirely, so a reload that
// touches one pipeline never resets another pipeline's stateful
// components (e.g. a rate scorer's accumulated window).
func specEqual(a, b PipelineSpec) bool {
	return a.Name == b.Name && diff(a, b, func(*stmt) bool { return true }) == nil
}

// swappableEqual reports whether only hot-swappable fields differ between
// the two specs — the condition under which Apply may proceed without a
// restart.
func (p PipelineSpec) swappableEqual(q PipelineSpec) error {
	return diff(p, q, func(r *stmt) bool { return r.rebuild })
}

// ParseDeployment parses a deployment spec in either form: JSON (first
// non-space byte '{') or the line-oriented text DSL, whose grammar is the
// statement table (statements.go) and is documented in SPEC.md.
func ParseDeployment(src string) (*DeploymentSpec, error) {
	trimmed := strings.TrimSpace(src)
	if strings.HasPrefix(trimmed, "{") {
		var d DeploymentSpec
		dec := json.NewDecoder(strings.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("control: parse JSON spec: %w", err)
		}
		if dec.More() {
			// Trailing content (e.g. two concatenated specs) would mean
			// silently applying only the first document.
			return nil, fmt.Errorf("control: parse JSON spec: trailing content after the deployment document")
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		return &d, nil
	}
	return parseDeploymentText(src)
}

// parseDeploymentText compiles the text DSL form.
func parseDeploymentText(src string) (*DeploymentSpec, error) {
	d := &DeploymentSpec{}
	var seen map[string]bool // what the open pipeline block set; nil at top level
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch stmt, args := fields[0], fields[1:]; {
		case !utf8.ValidString(line):
			err = fmt.Errorf("invalid UTF-8")
		case stmt == "pipeline" && len(args) == 1:
			d.Pipelines, seen = append(d.Pipelines, PipelineSpec{Name: args[0]}), map[string]bool{}
		case stmt == "route" && len(args) == 2:
			d.Routes, seen = append(d.Routes, RouteSpec{PathPrefix: args[0], Pipeline: args[1]}), nil
		case stmt == "tenant" && len(args) == 2:
			d.Routes, seen = append(d.Routes, RouteSpec{Tenant: args[0], Pipeline: args[1]}), nil
		case stmt == "pipeline" || stmt == "route" || stmt == "tenant":
			err = fmt.Errorf("want '%s'", map[string]string{
				"pipeline": "pipeline <name>", "route": "route <prefix> <pipeline>", "tenant": "tenant <key> <pipeline>"}[stmt])
		case seen == nil:
			err = fmt.Errorf("%q outside a pipeline block", stmt)
		default:
			err = d.Pipelines[len(d.Pipelines)-1].set("", line, seen)
		}
		if err != nil {
			return nil, fmt.Errorf("control: spec line %d: %w", lineNo+1, err)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Marshal renders the deployment in canonical JSON (the form the admin
// /spec endpoint serves and operators can round-trip through
// ParseDeployment). Deliberately not named MarshalText: encoding/json
// would treat that as a TextMarshaler implementation and recurse.
func (d *DeploymentSpec) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
