package aipow

import (
	"time"

	"aipow/internal/control"
	"aipow/internal/core"
	"aipow/internal/feedback"
	"aipow/internal/policy"
)

// This file surfaces the runtime control plane: declarative deployment
// specs, the component registry compiling them into runnable pipelines,
// atomic hot-swapping against live traffic, and the gatekeeper routing
// request classes onto per-route pipelines. See the "Runtime control
// plane" section of the package documentation and SPEC.md for the spec
// grammar.

// PipelineSpec declares one runnable pipeline: scorer, policy, source,
// TTL, difficulty cap, bypass threshold, and limits.
type PipelineSpec = control.PipelineSpec

// DeploymentSpec is the full control-plane document: named pipelines plus
// routes mapping request classes (path prefixes, tenant keys) onto them.
type DeploymentSpec = control.DeploymentSpec

// RouteSpec maps one path prefix or tenant key onto a pipeline.
type RouteSpec = control.RouteSpec

// SpecDuration is the duration type deployment specs use; it marshals as
// "30s"-style strings in JSON.
type SpecDuration = control.Duration

// ParseDeployment parses a deployment spec, in the text DSL or JSON form
// (see SPEC.md for the grammar).
func ParseDeployment(src string) (*DeploymentSpec, error) {
	return control.ParseDeployment(src)
}

// ScorerFactory builds an AI model from a component spec's parameters.
type ScorerFactory = control.ScorerFactory

// SourceFactory builds an attribute source over the registry's shared
// behavior tracker.
type SourceFactory = control.SourceFactory

// ComponentRegistry resolves the component names pipeline specs use and
// owns the shared state every built pipeline rides on: one HMAC key, one
// behavior tracker, one clock.
type ComponentRegistry = control.Registry

// ComponentRegistryOption configures NewComponentRegistry.
type ComponentRegistryOption = control.RegistryOption

// NewComponentRegistry returns a component registry. Register deployment
// scorers (e.g. a trained reputation model) with RegisterScorer and
// richer sources with RegisterSource; "tracker" (the live behavior
// tracker alone) is pre-registered.
func NewComponentRegistry(key []byte, opts ...ComponentRegistryOption) (*ComponentRegistry, error) {
	return control.NewRegistry(key, opts...)
}

// WithSharedTracker sets the registry's shared behavior tracker (default:
// a fresh tracker with default sizing).
func WithSharedTracker(t *Tracker) ComponentRegistryOption {
	return control.WithRegistryTracker(t)
}

// WithRegistryClock injects the clock every built pipeline uses.
func WithRegistryClock(now func() time.Time) ComponentRegistryOption {
	return control.WithRegistryClock(now)
}

// Pipeline is a runnable, hot-reconfigurable serving pipeline compiled
// from a PipelineSpec: Framework() serves, Apply installs a revised spec
// atomically against live traffic.
type Pipeline = control.Pipeline

// Gatekeeper routes request classes onto named pipelines sharing one
// tracker and one key; Apply reconfigures the whole deployment
// declaratively (hot-swapping pipelines where possible) with an atomic
// route-table switch.
type Gatekeeper = control.Gatekeeper

// NewGatekeeper compiles a deployment spec into a running gatekeeper.
func NewGatekeeper(reg *ComponentRegistry, dep *DeploymentSpec) (*Gatekeeper, error) {
	return control.NewGatekeeper(reg, dep)
}

// AdaptSpec is a pipeline spec's closed-loop adaptive-defense section:
// signal-plane shape (capacity, hard-difficulty threshold, window),
// optional load-shift, and the escalation ladder in the declarative rule
// grammar ("escalate(when=verify_fail_rate>0.3, policy=policy2,
// hold=30s)"). See the "Adaptive feedback" section of the package
// documentation and SPEC.md.
type AdaptSpec = control.AdaptSpec

// FeedbackController is the deterministic-steppable controller closing
// the defense loop over one pipeline: Pipeline.Controller exposes it,
// Gatekeeper.StepControllers drives every attached one.
type FeedbackController = feedback.Controller

// AdaptSignalNames lists the signal names adapt rule conditions can
// reference (rate, load, verify_fail_rate, hard_solve_frac, …).
func AdaptSignalNames() []string { return feedback.SignalNames() }

// ParseAdaptRule validates one escalation rule
// ("escalate(when=<cond>, policy=<spec>[, hold=<dur>][, after=<n>][, unless=<cond>])")
// without building a controller — useful for config linting.
func ParseAdaptRule(spec string) error {
	_, err := feedback.ParseRule(spec)
	return err
}

// SpecHistoryEntry is one applied deployment generation in the
// gatekeeper's bounded rollback history (Gatekeeper.History /
// Gatekeeper.Rollback).
type SpecHistoryEntry = control.SpecHistoryEntry

// SwapOption describes one change for Framework.Swap. Fields not
// mentioned keep their current values.
type SwapOption = core.SwapOption

// SetScorer replaces the AI model on the next snapshot.
func SetScorer(s Scorer) SwapOption { return core.SetScorer(s) }

// SetPolicy replaces the score→difficulty policy on the next snapshot.
func SetPolicy(p Policy) SwapOption { return core.SetPolicy(p) }

// SetSource replaces the attribute source on the next snapshot.
func SetSource(s AttributeSource) SwapOption { return core.SetSource(s) }

// SetFailClosedScore replaces the score assumed on scorer failure.
func SetFailClosedScore(v float64) SwapOption { return core.SetFailClosedScore(v) }

// SetBypassBelow replaces the bypass threshold (negative disables).
func SetBypassBelow(v float64) SwapOption { return core.SetBypassBelow(v) }

// MinScore is the bottom of the reputation scale (most trustworthy).
const MinScore = policy.MinScore
