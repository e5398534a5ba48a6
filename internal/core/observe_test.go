package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/metrics"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

func TestLatencyHistogramsRecord(t *testing.T) {
	f := newTestFramework(t)
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecideBatch([]RequestContext{{IP: "10.0.0.1"}, {IP: "10.0.0.9"}}, nil); err != nil {
		t.Fatal(err)
	}
	for i, h := range f.lat {
		if h.Count() < 1 {
			t.Errorf("%s histogram count = %d, want >= 1", latStageNames[i], h.Count())
		}
	}
	// The batch path times the batch, not its members.
	if got := f.lat[latStageDecide].Count(); got != 1 {
		t.Errorf("decide count = %d after one Decide + one batch, want 1", got)
	}
}

func TestLatencyExpositionValidates(t *testing.T) {
	f := newTestFramework(t)
	if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	e := metrics.NewExposition()
	f.LatencyExpositionInto(e, "aipow_serving_latency_ms", "serving-path latency",
		metrics.Label{Name: "pipeline", Value: "test"})
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := metrics.ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("latency exposition invalid: %v\n%s", err, out)
	}
	for _, stage := range latStageNames {
		if !strings.Contains(out, `stage="`+stage+`"`) {
			t.Errorf("missing stage %q in exposition", stage)
		}
	}
}

func TestStatsUnchangedByHistograms(t *testing.T) {
	f := newTestFramework(t)
	if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	for name := range f.Stats() {
		if strings.Contains(name, "latency") || strings.Contains(name, "stage") {
			t.Errorf("latency leaked into Stats map as %q — sim reports must stay deterministic", name)
		}
	}
}

// TestStatsPrefixInto pins the six counter keys: prefixed, valued, and
// written beside whatever the caller's map already holds.
func TestStatsPrefixInto(t *testing.T) {
	f := newTestFramework(t)
	if _, err := f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	dst := map[string]float64{"existing": 1}
	f.StatsPrefixInto("p.", dst)
	want := map[string]float64{
		"existing": 1, "p.bypassed": 0, "p.issued": 1, "p.rejected": 0,
		"p.score_errors": 0, "p.swaps": 0, "p.verified": 0,
	}
	if !reflect.DeepEqual(dst, want) {
		t.Errorf("StatsPrefixInto = %v, want %v", dst, want)
	}
}

func TestDecideTraceRecords(t *testing.T) {
	ring := obs.NewTraceRing(1, 16)
	f := newTestFramework(t, WithObserveTrace(ring), WithBypassBelow(1))
	if got := f.TraceRing(); got != ring {
		t.Fatalf("TraceRing = %p, want %p", got, ring)
	}
	f.SetTraceRung(3)

	if _, err := f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil { // challenged
		t.Fatal(err)
	}
	if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil { // bypassed (score 0 < 1)
		t.Fatal(err)
	}
	samples := ring.Snapshot()
	if len(samples) != 2 {
		t.Fatalf("trace samples = %d, want 2", len(samples))
	}
	challenged, bypassed := samples[0], samples[1]
	if challenged.Kind != "decide" || challenged.Score != 10 || challenged.Difficulty != 15 {
		t.Errorf("challenged sample = %+v", challenged)
	}
	if challenged.Rung != 3 {
		t.Errorf("challenged rung = %d, want 3", challenged.Rung)
	}
	if challenged.Client != obsClientHex("10.0.0.9") {
		t.Errorf("client hash = %q", challenged.Client)
	}
	if challenged.TotalNs <= 0 || challenged.IssueNs <= 0 {
		t.Errorf("stage timings missing: %+v", challenged)
	}
	if bypassed.Difficulty != -1 {
		t.Errorf("bypassed sample difficulty = %d, want -1", bypassed.Difficulty)
	}
}

func obsClientHex(ip string) string {
	return fmt.Sprintf("%016x", obs.HashClient(ip))
}

func TestVerifyTraceRecordsOutcome(t *testing.T) {
	ring := obs.NewTraceRing(1, 16)
	f := newTestFramework(t, WithObserveTrace(ring))
	dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(sol, "10.0.0.1"); !errors.Is(err, puzzle.ErrReplayed) {
		t.Fatalf("replay not rejected: %v", err)
	}
	var verifies []obs.TraceSample
	for _, s := range ring.Snapshot() {
		if s.Kind == "verify" {
			verifies = append(verifies, s)
		}
	}
	if len(verifies) != 2 {
		t.Fatalf("verify samples = %d, want 2", len(verifies))
	}
	if verifies[0].Outcome != "ok" || verifies[1].Outcome != "replayed" {
		t.Errorf("outcomes = %q, %q, want ok, replayed", verifies[0].Outcome, verifies[1].Outcome)
	}
}

func TestTraceSurvivesUnrelatedSwap(t *testing.T) {
	ring := obs.NewTraceRing(1, 16)
	f := newTestFramework(t, WithObserveTrace(ring))
	if err := f.SwapPolicy(policy.Policy1()); err != nil {
		t.Fatal(err)
	}
	if f.TraceRing() != ring {
		t.Fatal("trace ring lost across a policy swap")
	}
	bigger := obs.NewTraceRing(2, 64)
	if err := f.SwapTrace(bigger); err != nil {
		t.Fatal(err)
	}
	if f.TraceRing() != bigger {
		t.Fatal("SwapTrace did not install the new ring")
	}
	if err := f.SwapTrace(nil); err != nil {
		t.Fatal(err)
	}
	if f.TraceRing() != nil {
		t.Fatal("SwapTrace(nil) did not disable tracing")
	}
	// Tracing off: decisions proceed untraced.
	if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSampling(t *testing.T) {
	ring := obs.NewTraceRing(4, 64)
	f := newTestFramework(t, WithObserveTrace(ring))
	for i := 0; i < 32; i++ {
		if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ring.Recorded(); got != 8 {
		t.Errorf("recorded %d of 32 at 1-in-4, want 8", got)
	}
}

func TestBatchTraceSamplesPerItem(t *testing.T) {
	ring := obs.NewTraceRing(1, 64)
	f := newTestFramework(t, WithObserveTrace(ring))
	reqs := make([]RequestContext, 10)
	for i := range reqs {
		reqs[i] = RequestContext{IP: "10.0.0.1"}
	}
	if _, err := f.DecideBatch(reqs, nil); err != nil {
		t.Fatal(err)
	}
	if got := ring.Recorded(); got != 10 {
		t.Errorf("batch recorded %d traces for 10 requests at 1-in-1, want 10", got)
	}
}

// TestFlushStallEvent drives the flush loop with an injected clock that
// jumps far past the flush interval per reading, so every tick looks like
// a stalled drain and must emit an evidence.flush_stall event.
func TestFlushStallEvent(t *testing.T) {
	tracker, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []obs.Event
	var fake struct {
		mu  sync.Mutex
		now time.Time
	}
	fake.now = time.Unix(1000, 0)
	clock := func() time.Time {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		fake.now = fake.now.Add(100 * time.Millisecond)
		return fake.now
	}
	f := newTestFramework(t,
		WithTracker(tracker),
		WithEvidenceBuffer(64, time.Millisecond),
		WithClock(clock),
		WithEventSink(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	)
	defer f.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no flush_stall event emitted")
	}
	e := events[0]
	if e.Kind != obs.EventFlushStall {
		t.Errorf("kind = %q, want %q", e.Kind, obs.EventFlushStall)
	}
	if e.Value < 100 { // clock jumps 100 ms per reading; two readings bound the flush
		t.Errorf("stall value = %v ms, want >= 100", e.Value)
	}
}

// TestFreshFrameworkExpositionBytes pins the /metrics bytes a framework
// that has served nothing contributes: counter sample order, HELP and TYPE
// lines, and every latency bucket bound. A change to the counter table or
// the histogram layout shows here as a byte diff.
func TestFreshFrameworkExpositionBytes(t *testing.T) {
	f := newTestFramework(t)
	e := metrics.NewExposition()
	labels := []metrics.Label{{Name: "pipeline", Value: "web"}}
	f.StatsExpositionInto(e, "aipow_", labels...)
	f.LatencyExpositionInto(e, "aipow_serving_latency_ms",
		"serving-path stage latency in milliseconds", labels...)
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != freshExposition {
		t.Errorf("fresh exposition moved:\ngot:\n%s\nwant:\n%s", got, freshExposition)
	}
}

const freshExposition = `# HELP aipow_bypassed counter bypassed
# TYPE aipow_bypassed counter
aipow_bypassed{pipeline="web"} 0
# HELP aipow_issued counter issued
# TYPE aipow_issued counter
aipow_issued{pipeline="web"} 0
# HELP aipow_rejected counter rejected
# TYPE aipow_rejected counter
aipow_rejected{pipeline="web"} 0
# HELP aipow_score_errors counter score_errors
# TYPE aipow_score_errors counter
aipow_score_errors{pipeline="web"} 0
# HELP aipow_serving_latency_ms serving-path stage latency in milliseconds
# TYPE aipow_serving_latency_ms histogram
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0005"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.00075"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0011250000000000001"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0016875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.00253125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.003796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0056953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.00854296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.012814453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0192216796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.02883251953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.043248779296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.0648731689453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.09730975341796876"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.14596463012695313"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.2189469451904297"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.3284204177856445"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.4926306266784668"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="0.7389459400177002"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="1.1084189100265502"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="1.6626283650398255"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="2.493942547559738"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="3.7409138213396074"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="5.611370732009411"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="8.417056098014116"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="12.625584147021174"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="18.93837622053176"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="28.407564330797644"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="42.61134649619647"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="63.9170197442947"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="95.87552961644205"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="143.81329442466307"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="215.7199416369946"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="323.5799124554919"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="485.3698686832378"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="728.0548030248567"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="1092.0822045372852"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="1638.1233068059278"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="2457.1849602088914"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="3685.7774403133376"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="5528.666160470007"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="decide",le="+Inf"} 0
aipow_serving_latency_ms_sum{pipeline="web",stage="decide"} 0
aipow_serving_latency_ms_count{pipeline="web",stage="decide"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0005"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.00075"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0011250000000000001"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0016875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.00253125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.003796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0056953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.00854296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.012814453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0192216796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.02883251953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.043248779296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.0648731689453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.09730975341796876"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.14596463012695313"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.2189469451904297"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.3284204177856445"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.4926306266784668"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="0.7389459400177002"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="1.1084189100265502"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="1.6626283650398255"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="2.493942547559738"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="3.7409138213396074"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="5.611370732009411"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="8.417056098014116"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="12.625584147021174"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="18.93837622053176"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="28.407564330797644"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="42.61134649619647"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="63.9170197442947"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="95.87552961644205"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="143.81329442466307"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="215.7199416369946"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="323.5799124554919"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="485.3698686832378"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="728.0548030248567"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="1092.0822045372852"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="1638.1233068059278"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="2457.1849602088914"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="3685.7774403133376"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="5528.666160470007"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="issue",le="+Inf"} 0
aipow_serving_latency_ms_sum{pipeline="web",stage="issue"} 0
aipow_serving_latency_ms_count{pipeline="web",stage="issue"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0005"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.00075"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0011250000000000001"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0016875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.00253125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.003796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0056953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.00854296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.012814453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0192216796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.02883251953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.043248779296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.0648731689453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.09730975341796876"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.14596463012695313"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.2189469451904297"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.3284204177856445"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.4926306266784668"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="0.7389459400177002"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="1.1084189100265502"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="1.6626283650398255"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="2.493942547559738"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="3.7409138213396074"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="5.611370732009411"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="8.417056098014116"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="12.625584147021174"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="18.93837622053176"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="28.407564330797644"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="42.61134649619647"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="63.9170197442947"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="95.87552961644205"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="143.81329442466307"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="215.7199416369946"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="323.5799124554919"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="485.3698686832378"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="728.0548030248567"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="1092.0822045372852"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="1638.1233068059278"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="2457.1849602088914"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="3685.7774403133376"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="5528.666160470007"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="verify",le="+Inf"} 0
aipow_serving_latency_ms_sum{pipeline="web",stage="verify"} 0
aipow_serving_latency_ms_count{pipeline="web",stage="verify"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0005"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.00075"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0011250000000000001"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0016875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.00253125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.003796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0056953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.00854296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.012814453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0192216796875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.02883251953125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.043248779296875"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.0648731689453125"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.09730975341796876"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.14596463012695313"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.2189469451904297"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.3284204177856445"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.4926306266784668"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="0.7389459400177002"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="1.1084189100265502"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="1.6626283650398255"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="2.493942547559738"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="3.7409138213396074"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="5.611370732009411"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="8.417056098014116"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="12.625584147021174"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="18.93837622053176"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="28.407564330797644"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="42.61134649619647"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="63.9170197442947"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="95.87552961644205"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="143.81329442466307"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="215.7199416369946"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="323.5799124554919"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="485.3698686832378"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="728.0548030248567"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="1092.0822045372852"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="1638.1233068059278"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="2457.1849602088914"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="3685.7774403133376"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="5528.666160470007"} 0
aipow_serving_latency_ms_bucket{pipeline="web",stage="batch",le="+Inf"} 0
aipow_serving_latency_ms_sum{pipeline="web",stage="batch"} 0
aipow_serving_latency_ms_count{pipeline="web",stage="batch"} 0
# HELP aipow_swaps counter swaps
# TYPE aipow_swaps counter
aipow_swaps{pipeline="web"} 0
# HELP aipow_verified counter verified
# TYPE aipow_verified counter
aipow_verified{pipeline="web"} 0
`
