package core

import (
	"time"

	"aipow/internal/metrics"
	"aipow/internal/obs"
	"aipow/internal/puzzle"
)

// Serving-path latency histogram stages. The histograms are always on —
// atomic, allocation-free, and cheap enough (two clock reads and two
// atomic observes per decision) that there is no "observability off"
// configuration to get wrong in production.
const (
	latStageDecide = iota
	latStageIssue
	latStageVerify
	latStageBatch
	latStages
)

// latStageNames are the stage label values exported on the latency
// family.
var latStageNames = [latStages]string{"decide", "issue", "verify", "batch"}

// WithObserveTrace installs a sampled decision-trace ring. Nil (the
// default) disables tracing: the hot path then pays one pointer nil-check
// per decision. The ring is part of the swappable snapshot — replace it
// at runtime with Swap(SetTrace(...)) or the control plane's
// `observe trace(...)` spec line.
func WithObserveTrace(t *obs.TraceRing) Option {
	return func(c *config) { c.trace = t }
}

// WithEventSink registers the defense event sink. The framework itself
// emits only evidence-plane events (flush stalls); the control, feedback,
// and cluster layers attach richer emitters around the same sink.
func WithEventSink(s obs.Sink) Option {
	return func(c *config) { c.events = s }
}

// SetTrace replaces (or with nil, removes) the decision-trace ring as
// part of a Swap. Like every snapshot field, in-flight requests finish on
// the ring they loaded.
func SetTrace(t *obs.TraceRing) SwapOption {
	return func(c *swapConfig) { c.trace, c.traceSet = t, true }
}

// SwapTrace atomically replaces just the trace ring — the hot-swap behind
// an `observe trace(...)` spec line change.
func (f *Framework) SwapTrace(t *obs.TraceRing) error { return f.Swap(SetTrace(t)) }

// TraceRing reports the active trace ring (nil when tracing is off).
func (f *Framework) TraceRing() *obs.TraceRing { return f.snap.Load().trace }

// SetTraceRung records the pipeline's current adapt escalation level, so
// sampled trace records carry the rung they were decided under. The
// feedback plane calls this on every level transition.
func (f *Framework) SetTraceRung(level int) { f.traceRung.Store(int32(level)) }

// TraceRung reports the last recorded adapt escalation level.
func (f *Framework) TraceRung() int { return int(f.traceRung.Load()) }

// LatencySnapshots exports the serving-path latency histograms keyed by
// stage name (decide, issue, verify, batch). Values are milliseconds.
func (f *Framework) LatencySnapshots() map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot, latStages)
	for i, h := range f.lat {
		out[latStageNames[i]] = h.Snapshot()
	}
	return out
}

// StatsExpositionInto contributes the framework's serving counters to e
// under prefix, typed from the registry (monotone counters as counters).
func (f *Framework) StatsExpositionInto(e *metrics.Exposition, prefix string, labels ...metrics.Label) {
	f.stats.ExpositionInto(e, prefix, labels...)
}

// LatencyExpositionInto contributes the serving-path latency histograms
// to e as one family, each stage a labeled series (stage="decide", …) on
// top of the caller's labels.
func (f *Framework) LatencyExpositionInto(e *metrics.Exposition, name, help string, labels ...metrics.Label) {
	for i, h := range f.lat {
		stageLabels := make([]metrics.Label, 0, len(labels)+1)
		stageLabels = append(stageLabels, labels...)
		stageLabels = append(stageLabels, metrics.Label{Name: "stage", Value: latStageNames[i]})
		h.ExpositionInto(e, name, help, stageLabels...)
	}
}

// traceDecide records one sampled decision. Off the fast path (the caller
// already won the 1-in-N sampling draw) but still allocation-free: the
// redemption credit is read by re-filling a pooled vector, the same
// scratch Decide's scoring uses.
func (f *Framework) traceDecide(snap *snapshot, dec *Decision, t0, t1, t2 time.Time) {
	var credit float64
	if snap.creditIdx >= 0 {
		vp := snap.vecPool.Get().(*[]float64)
		v := *vp
		clear(v)
		snap.source.AttributesVector(v, snap.schema, dec.IP, f.hotNow())
		credit = v[snap.creditIdx]
		snap.vecPool.Put(vp)
	}
	diff := int32(dec.Difficulty)
	if dec.Bypassed {
		diff = -1
	}
	snap.trace.RecordDecide(t2, obs.HashClient(dec.IP), dec.Score, dec.Confidence, credit,
		diff, f.traceRung.Load(),
		t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), t2.Sub(t0).Nanoseconds())
}

// traceVerify records one sampled verification (Verify and VerifyBatch
// draw the sample; el is zero for batch items).
func (f *Framework) traceVerify(t *obs.TraceRing, at time.Time, sol *puzzle.Solution, binding string, err error, el time.Duration) {
	t.RecordVerify(at, obs.HashClient(binding), puzzle.TraceOutcome(err),
		int32(sol.Challenge.Difficulty), f.traceRung.Load(), el.Nanoseconds())
}
