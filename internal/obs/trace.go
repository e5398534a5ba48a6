package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Trace record kinds.
const (
	TraceDecide uint32 = iota
	TraceVerify
)

// VerifyOutcome is a compact classification of a verification result for
// trace records. The puzzle package maps its error taxonomy onto these
// codes (see puzzle.TraceOutcome); obs owns the codes so trace storage
// stays dependency-free.
type VerifyOutcome uint32

const (
	OutcomeOK VerifyOutcome = iota
	OutcomeBadVersion
	OutcomeBadTag
	OutcomeBindingMismatch
	OutcomeNotYetValid
	OutcomeExpired
	OutcomeWrongSolution
	OutcomeReplayed
	// OutcomeFleetReplay is a replay caught by the cluster plane's
	// gossiped tag filter (SeenTag) rather than the local seed cache.
	OutcomeFleetReplay
	OutcomeInvalidDifficulty
	OutcomeOther
)

// String renders the outcome for trace JSON.
func (o VerifyOutcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeBadVersion:
		return "bad_version"
	case OutcomeBadTag:
		return "bad_tag"
	case OutcomeBindingMismatch:
		return "binding_mismatch"
	case OutcomeNotYetValid:
		return "not_yet_valid"
	case OutcomeExpired:
		return "expired"
	case OutcomeWrongSolution:
		return "wrong_solution"
	case OutcomeReplayed:
		return "replayed"
	case OutcomeFleetReplay:
		return "fleet_replay"
	case OutcomeInvalidDifficulty:
		return "invalid_difficulty"
	}
	return "other"
}

// traceRecord is one ring slot. Every field is atomic-sized and accessed
// only through atomic operations, with a per-slot sequence counter
// providing seqlock semantics: seq is incremented before the first field
// store (odd = being written) and after the last (even = stable), so a
// reader that observes an odd or changed seq discards the slot instead of
// reporting a torn record. This keeps the writer lock-free and the whole
// structure clean under the race detector.
type traceRecord struct {
	seq        atomic.Uint64
	at         atomic.Int64 // unix nanoseconds
	client     atomic.Uint64
	kind       atomic.Uint32
	outcome    atomic.Uint32
	score      atomic.Uint64 // float64 bits
	conf       atomic.Uint64 // float64 bits
	credit     atomic.Uint64 // float64 bits
	difficulty atomic.Int32
	rung       atomic.Int32
	scoreNs    atomic.Int64
	issueNs    atomic.Int64
	totalNs    atomic.Int64
}

// TraceSample is the exported, JSON-marshalable form of one trace record.
type TraceSample struct {
	// At is when the decision completed.
	At time.Time `json:"at"`

	// Kind is "decide" or "verify".
	Kind string `json:"kind"`

	// Client is the FNV-1a hash of the client identity, rendered as 16
	// hex digits — stable for correlating one client across samples
	// without exporting the identity itself.
	Client string `json:"client"`

	// Score and Confidence echo the decision's scoring outcome.
	Score      float64 `json:"score"`
	Confidence float64 `json:"confidence,omitempty"`

	// Difficulty is the chosen (decide) or presented (verify) puzzle
	// difficulty; -1 marks a bypassed decision.
	Difficulty int `json:"difficulty"`

	// Rung is the pipeline's adapt escalation level at record time.
	Rung int `json:"rung"`

	// Credit is the client's live solve credit (the redemption feed),
	// when the pipeline's schema exposes it.
	Credit float64 `json:"credit,omitempty"`

	// Outcome classifies a verify record's result.
	Outcome string `json:"outcome,omitempty"`

	// ScoreNs/IssueNs/TotalNs are per-stage wall-clock nanoseconds.
	ScoreNs int64 `json:"score_ns,omitempty"`
	IssueNs int64 `json:"issue_ns,omitempty"`
	TotalNs int64 `json:"total_ns"`
}

// TraceRing is a lock-free, fixed-size ring of sampled decision traces.
// The sampling decision — Sampled — costs exactly one atomic add and one
// mask compare, and recording a sampled decision performs only atomic
// stores into a pre-allocated slot: the serving path never allocates or
// locks regardless of the sample rate. Hot-swap a new ring (different
// rate or size) by replacing the pointer that reaches the serving path.
type TraceRing struct {
	sampleMask uint64
	slotMask   uint64
	slots      []traceRecord
	counter    atomic.Uint64
	widx       atomic.Uint64
}

// Trace ring size limits: the ring is fixed-size memory held for the
// pipeline's lifetime, so the spec-facing constructor clamps to a sane
// window.
const (
	MinTraceRingSize = 16
	MaxTraceRingSize = 1 << 20
	MaxTraceSample   = 1 << 30
)

// DefaultTraceSample and DefaultTraceRingSize are the `observe trace`
// spec defaults: 1-in-1024 sampling into a 256-record ring.
const (
	DefaultTraceSample   = 1024
	DefaultTraceRingSize = 256
)

// NewTraceRing returns a ring sampling 1 in sample decisions into ring
// slots. Both are rounded up to powers of two (so the sampling decision
// is a mask, not a division) and clamped to [1, MaxTraceSample] and
// [MinTraceRingSize, MaxTraceRingSize] respectively.
func NewTraceRing(sample, ring int) *TraceRing {
	s, n := TraceGeometry(sample, ring)
	return &TraceRing{
		sampleMask: uint64(s - 1),
		slotMask:   uint64(n - 1),
		slots:      make([]traceRecord, n),
	}
}

// TraceGeometry reports the sample rate and slot count NewTraceRing
// builds for the requested ones, so callers can compare two requests by
// their effect.
func TraceGeometry(sample, ring int) (int, int) {
	return ceilPow2(clampInt(sample, 1, MaxTraceSample)), ceilPow2(clampInt(ring, MinTraceRingSize, MaxTraceRingSize))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// Recorded reports how many slot claims were ever made (the most recent
// ring-size of them are retained; a claim that lands on a slot still
// mid-write is dropped).
func (t *TraceRing) Recorded() uint64 { return t.widx.Load() }

// Sampled reports whether the current request should be traced: one
// atomic add, one mask compare. This is the entire unsampled-path cost.
func (t *TraceRing) Sampled() bool {
	return t.counter.Add(1)&t.sampleMask == 0
}

// begin claims the next slot and marks it mid-write (odd: readers skip).
// The claim is a CAS even→odd, so a slot has one writer at a time: a
// writer that laps onto a slot another is still filling gets nil and drops
// its sample rather than interleaving stores with the owner's (two blind
// increments would leave seq even with both mid-write).
func (t *TraceRing) begin() *traceRecord {
	r := &t.slots[(t.widx.Add(1)-1)&t.slotMask]
	s := r.seq.Load()
	if s&1 == 1 || !r.seq.CompareAndSwap(s, s+1) {
		return nil
	}
	return r
}

// RecordDecide writes one sampled decision trace. All stores are atomic;
// no allocation.
func (t *TraceRing) RecordDecide(at time.Time, client uint64, score, conf, credit float64, difficulty, rung int32, scoreNs, issueNs, totalNs int64) {
	r := t.begin()
	if r == nil {
		return
	}
	r.at.Store(at.UnixNano())
	r.client.Store(client)
	r.kind.Store(TraceDecide)
	r.outcome.Store(uint32(OutcomeOK))
	r.score.Store(floatBits(score))
	r.conf.Store(floatBits(conf))
	r.credit.Store(floatBits(credit))
	r.difficulty.Store(difficulty)
	r.rung.Store(rung)
	r.scoreNs.Store(scoreNs)
	r.issueNs.Store(issueNs)
	r.totalNs.Store(totalNs)
	r.seq.Add(1) // even: stable
}

// RecordVerify writes one sampled verification trace.
func (t *TraceRing) RecordVerify(at time.Time, client uint64, outcome VerifyOutcome, difficulty, rung int32, totalNs int64) {
	r := t.begin()
	if r == nil {
		return
	}
	r.at.Store(at.UnixNano())
	r.client.Store(client)
	r.kind.Store(TraceVerify)
	r.outcome.Store(uint32(outcome))
	r.score.Store(0)
	r.conf.Store(0)
	r.credit.Store(0)
	r.difficulty.Store(difficulty)
	r.rung.Store(rung)
	r.scoreNs.Store(0)
	r.issueNs.Store(0)
	r.totalNs.Store(totalNs)
	r.seq.Add(1)
}

// Snapshot exports the stable retained records, oldest-written slot
// first. Records mid-write (or written during the read) are skipped
// rather than reported torn.
func (t *TraceRing) Snapshot() []TraceSample {
	out := make([]TraceSample, 0, len(t.slots))
	for i := range t.slots {
		r := &t.slots[i]
		s1 := r.seq.Load()
		if s1 == 0 || s1&1 == 1 {
			continue // never written, or mid-write
		}
		sample := TraceSample{
			At:         time.Unix(0, r.at.Load()),
			Client:     fmt.Sprintf("%016x", r.client.Load()),
			Score:      bitsFloat(r.score.Load()),
			Confidence: bitsFloat(r.conf.Load()),
			Credit:     bitsFloat(r.credit.Load()),
			Difficulty: int(r.difficulty.Load()),
			Rung:       int(r.rung.Load()),
			ScoreNs:    r.scoreNs.Load(),
			IssueNs:    r.issueNs.Load(),
			TotalNs:    r.totalNs.Load(),
		}
		kind, outcome := r.kind.Load(), VerifyOutcome(r.outcome.Load())
		if r.seq.Load() != s1 {
			continue // overwritten while reading
		}
		if kind == TraceVerify {
			sample.Kind = "verify"
			sample.Outcome = outcome.String()
		} else {
			sample.Kind = "decide"
		}
		out = append(out, sample)
	}
	return out
}

// HashClient is the FNV-1a hash trace records key clients by:
// allocation-free and stable across processes.
func HashClient(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }
