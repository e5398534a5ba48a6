package aipow

import (
	"aipow/internal/control"
	"aipow/internal/core"
	"aipow/internal/metrics"
	"aipow/internal/obs"
)

// This file surfaces the observability plane: Prometheus text exposition,
// the sampled decision-trace ring, and the defense event log. See the
// "Observability" section of the package documentation.

// ObserveSpec is a pipeline spec's observability section: the decision
// trace sample rate and ring size ("observe trace(sample=1024,
// ring=256)"). Hot-swappable — applying a changed section replaces the
// ring without a pipeline rebuild.
type ObserveSpec = control.ObserveSpec

// TraceRing is a lock-free ring of sampled serving-path decision traces.
// The unsampled path costs one atomic increment and one branch.
type TraceRing = obs.TraceRing

// TraceSample is one exported decision trace: client hash, score,
// confidence, chosen difficulty, adapt rung, redemption credit, and
// per-stage nanosecond timings.
type TraceSample = obs.TraceSample

// NewTraceRing returns a trace ring sampling 1 in sample decisions into
// ring slots; both round up to powers of two.
func NewTraceRing(sample, ring int) *TraceRing { return obs.NewTraceRing(sample, ring) }

// DefaultTraceSample and DefaultTraceRingSize are the sampling defaults
// an `observe trace` spec line gets when it omits the parameters.
const (
	DefaultTraceSample   = obs.DefaultTraceSample
	DefaultTraceRingSize = obs.DefaultTraceRingSize
)

// DefenseEvent is one defense state transition: an adapt escalation, a
// spec apply or rollback, a cluster membership change, an evidence flush
// stall.
type DefenseEvent = obs.Event

// Defense event kinds (DefenseEvent.Kind).
const (
	EventAdaptEscalate   = obs.EventAdaptEscalate
	EventAdaptDeescalate = obs.EventAdaptDeescalate
	EventSpecApply       = obs.EventSpecApply
	EventSpecRollback    = obs.EventSpecRollback
	EventPeerJoin        = obs.EventPeerJoin
	EventPeerStale       = obs.EventPeerStale
	EventFlushStall      = obs.EventFlushStall
)

// EventSink consumes defense events; EventLog.Append is the usual sink.
type EventSink = obs.Sink

// EventLog is a bounded concurrent ring of defense events, the backing
// store for GET /events.
type EventLog = obs.EventLog

// NewEventLog returns an event log retaining the last capacity events
// (a few hundred by default when capacity ≤ 0).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// WithObserveTrace installs a sampled decision-trace ring on a framework
// built directly with New (spec-driven pipelines use `observe trace`).
func WithObserveTrace(t *TraceRing) Option { return core.WithObserveTrace(t) }

// WithEventSink registers the framework's defense event sink (evidence
// flush stalls; control-plane layers attach richer emitters).
func WithEventSink(s EventSink) Option { return core.WithEventSink(s) }

// SetTrace replaces (or with nil, removes) the decision-trace ring as
// part of a Swap.
func SetTrace(t *TraceRing) SwapOption { return core.SetTrace(t) }

// WithRegistryEvents attaches a defense event sink to every pipeline the
// registry builds: adapt transitions, spec applies and rollbacks, cluster
// membership changes, and evidence stalls all land in it, stamped with
// the pipeline name.
func WithRegistryEvents(sink EventSink) ComponentRegistryOption {
	return control.WithRegistryEvents(sink)
}

// Exposition assembles Prometheus text-format (version 0.0.4) metric
// families; Gatekeeper.ExpositionInto fills one per scrape.
type Exposition = metrics.Exposition

// MetricLabel is one exposition label pair.
type MetricLabel = metrics.Label

// NewExposition returns an empty exposition.
func NewExposition() *Exposition { return metrics.NewExposition() }

// ValidateExposition checks Prometheus text-format output: family
// structure (HELP/TYPE before samples), metric and label name syntax,
// histogram bucket monotonicity, and +Inf/_count agreement. powserver's
// end-to-end test runs scraped /metrics bodies through it.
func ValidateExposition(data []byte) error { return metrics.ValidateExposition(data) }
