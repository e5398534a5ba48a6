// Package obs is the framework's observability plane: a bounded structured
// event log for defense state transitions and a lock-free sampled trace
// ring for serving-path decisions. Both are dependency-free and designed so
// the serving hot path pays at most one atomic operation and one branch
// when a request is not sampled, and zero heap allocations when it is.
//
// The event log answers "when did node 3 escalate, and why": every defense
// state transition — adapt escalate/de-escalate with the triggering signal
// value, spec apply/rollback, cluster peer join/stale, evidence-buffer
// flush stalls — is appended as one fixed-shape Event. The trace ring
// answers "why did this client get difficulty 14": a spec-controlled
// 1-in-N sample of decisions is recorded with score, confidence, chosen
// difficulty, adapt rung, redemption credit, verify outcome, and per-stage
// nanosecond timings.
package obs

import (
	"sync"
	"time"
)

// Event kinds, namespaced by the emitting subsystem.
const (
	// EventAdaptEscalate / EventAdaptDeescalate are feedback-controller
	// level changes; From/To carry the levels, Rule the triggering
	// condition, and Signal/Value the signal reading that tripped it.
	EventAdaptEscalate   = "adapt.escalate"
	EventAdaptDeescalate = "adapt.deescalate"

	// EventSpecApply / EventSpecRollback are control-plane deployment
	// generation changes; To carries the new generation sequence.
	EventSpecApply    = "spec.apply"
	EventSpecRollback = "spec.rollback"

	// EventPeerJoin / EventPeerStale are cluster-plane membership
	// transitions; Detail names the peer origin (join) or endpoint
	// (stale).
	EventPeerJoin  = "cluster.peer_join"
	EventPeerStale = "cluster.peer_stale"

	// EventFlushStall reports an evidence write-back flush that took
	// longer than its interval; Value is the flush duration in
	// milliseconds.
	EventFlushStall = "evidence.flush_stall"
)

// Event is one defense state transition. Fields beyond At and Kind are
// kind-specific and omitted from JSON when zero.
type Event struct {
	// Seq is the log-assigned monotonic sequence number, so a consumer
	// tailing GET /events can detect rotation gaps.
	Seq uint64 `json:"seq"`

	// At is when the transition happened, on the emitter's clock (the
	// simulation engine's virtual clock in scenario runs).
	At time.Time `json:"at"`

	// Kind is one of the Event* constants.
	Kind string `json:"kind"`

	// Pipeline names the pipeline the event belongs to, when one does.
	Pipeline string `json:"pipeline,omitempty"`

	// Node names the emitting fleet member, when relevant.
	Node string `json:"node,omitempty"`

	// From and To are the levels (adapt events) or generation sequences
	// (spec events) before and after the transition.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`

	// Rule is the triggering rule condition for adapt escalations.
	Rule string `json:"rule,omitempty"`

	// Signal and Value carry the signal reading that tripped an adapt
	// rule, e.g. Signal "rate", Value 181.2.
	Signal string  `json:"signal,omitempty"`
	Value  float64 `json:"value,omitempty"`

	// Detail is free-form kind-specific context (peer origin, endpoint).
	Detail string `json:"detail,omitempty"`
}

// Sink consumes events. EventLog.Append is the usual sink; emitters hold a
// Sink so hosts can wrap it (adding pipeline or node labels) or drop
// events entirely with a nil func.
type Sink func(Event)

// DefaultEventLogSize bounds an event log constructed with capacity ≤ 0.
// Defense transitions are rare (per-minute, not per-request), so a few
// hundred entries cover hours of incident history.
const DefaultEventLogSize = 512

// EventLog is a bounded ring of events, safe for concurrent use. Appends
// are mutex-guarded — events are emitted from control-plane paths, never
// from the serving hot path — and once full the oldest entry is
// overwritten.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // overwrite cursor once the ring is full
	total uint64 // events ever appended; assigns Seq
}

// NewEventLog returns a log retaining the last capacity events
// (DefaultEventLogSize when capacity ≤ 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Append records one event, stamping its sequence number. Usable directly
// as a Sink method value.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	e.Seq = l.total
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % cap(l.buf)
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) {
		return append(out, l.buf...)
	}
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}
