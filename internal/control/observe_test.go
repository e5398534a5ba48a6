package control

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/metrics"
	"aipow/internal/obs"
	"aipow/internal/puzzle"
)

func TestParseDeploymentObserveText(t *testing.T) {
	dep, err := ParseDeployment(`
pipeline web
  scorer threat
  source store
  policy policy1
  observe trace(sample=64, ring=128)
`)
	if err != nil {
		t.Fatal(err)
	}
	o := dep.Pipelines[0].Observe
	if o == nil {
		t.Fatal("observe section not parsed")
	}
	if o.TraceSample != 64 || o.TraceRing != 128 {
		t.Fatalf("observe spec = %+v, want sample 64 ring 128", o)
	}

	// The canonical JSON form round-trips.
	buf, err := dep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := ParseDeployment(string(buf))
	if err != nil {
		t.Fatalf("re-parse canonical JSON: %v", err)
	}
	if !specEqual(dep2.Pipelines[0], dep.Pipelines[0]) {
		t.Fatalf("observe section changed across the JSON round trip: %+v vs %+v", dep2.Pipelines[0].Observe, o)
	}
}

func TestParseDeploymentObserveErrors(t *testing.T) {
	cases := []struct{ name, line, wantErr string }{
		{"bare", "observe", "want 'observe trace"},
		{"unknown group", "observe span(x=1)", "unknown group"},
		{"unknown param", "observe trace(wat=1)", "unknown parameter"},
		{"bad value", "observe trace(sample=abc)", "invalid syntax"},
		{"unclosed", "observe trace(sample=1", "unclosed group"},
		{"duplicate group", "observe trace(sample=1) trace(ring=2)", "duplicate group"},
		{"negative", "observe trace(sample=-1)", "negative trace sample"},
		{"duplicate parameter", "observe trace(sample=1, sample=2)", "duplicate parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "pipeline p\n  scorer threat\n  policy policy1\n  " + tc.line + "\n"
			_, err := ParseDeployment(src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func TestObserveSpecBuildsTraceRing(t *testing.T) {
	reg := newTestRegistry(t)
	p, err := reg.Build(PipelineSpec{
		Name: "web", Scorer: "threat", Source: "store", Policy: "policy2",
		Observe: &ObserveSpec{TraceSample: 1, TraceRing: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := p.Framework().TraceRing()
	if ring == nil {
		t.Fatal("observe section built no trace ring")
	}
	if _, err := p.Framework().Decide(core.RequestContext{IP: "10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	samples := ring.Snapshot()
	if len(samples) != 1 || samples[0].Kind != "decide" {
		t.Fatalf("trace samples = %+v, want one decide", samples)
	}
}

func TestObserveHotSwap(t *testing.T) {
	reg := newTestRegistry(t)
	base := PipelineSpec{Name: "web", Scorer: "threat", Source: "store", Policy: "policy2"}
	p, err := reg.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Framework().TraceRing() != nil {
		t.Fatal("tracing on without an observe section")
	}

	// Adding the section is a hot swap, not a rebuild.
	withTrace := base
	withTrace.Observe = &ObserveSpec{TraceSample: 1, TraceRing: 16}
	if err := p.Apply(withTrace); err != nil {
		t.Fatalf("observe apply not hot-swappable: %v", err)
	}
	ring := p.Framework().TraceRing()
	if ring == nil {
		t.Fatal("apply did not install a trace ring")
	}

	// An unrelated swappable change keeps the running ring.
	bypass := 20.0
	unrelated := withTrace
	unrelated.BypassBelow = &bypass
	if err := p.Apply(unrelated); err != nil {
		t.Fatal(err)
	}
	if p.Framework().TraceRing() != ring {
		t.Fatal("unrelated apply replaced the trace ring")
	}

	// Removing the section disables tracing.
	if err := p.Apply(base); err != nil {
		t.Fatal(err)
	}
	if p.Framework().TraceRing() != nil {
		t.Fatal("removing the observe section left tracing on")
	}
}

// TestObserveEquivalentSpellingsAreNotAChange: observe sections that
// resolve to the same sample rate and ring size — after zero→default
// substitution and power-of-two rounding — are one spec, so applying one
// over the other keeps the running ring (and, since the apply is a no-op,
// an escalated adapt controller).
func TestObserveEquivalentSpellingsAreNotAChange(t *testing.T) {
	reg := newTestRegistry(t)
	base := PipelineSpec{Name: "web", Scorer: "threat", Source: "store", Policy: "policy2", Observe: &ObserveSpec{}}
	p, err := reg.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	ring := p.Framework().TraceRing()
	for _, o := range []ObserveSpec{{TraceSample: 1024, TraceRing: 256}, {TraceSample: 1000, TraceRing: 200}} {
		next := base
		next.Observe = &o
		if !specEqual(base, next) {
			t.Fatalf("observe %+v differs from the defaults it resolves to", o)
		}
		if err := p.Apply(next); err != nil {
			t.Fatal(err)
		}
		if p.Framework().TraceRing() != ring {
			t.Fatalf("applying equivalent observe %+v replaced the trace ring", o)
		}
	}
	changed := base
	changed.Observe = &ObserveSpec{TraceSample: 1}
	if err := p.Apply(changed); err != nil {
		t.Fatal(err)
	}
	if p.Framework().TraceRing() == ring {
		t.Fatal("a real sample-rate change kept the old ring")
	}
}

func TestGatekeeperEmitsSpecAndAdaptEvents(t *testing.T) {
	var mu sync.Mutex
	var events []obs.Event
	clock := newManualClock()
	reg := newTestRegistry(t)
	reg.now = clock.now
	reg.events = func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	dep, err := ParseDeployment(adaptSpecText)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()

	kinds := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := make([]string, len(events))
		for i, e := range events {
			out[i] = e.Kind
		}
		return out
	}
	if got := kinds(); len(got) != 1 || got[0] != obs.EventSpecApply {
		t.Fatalf("events after build = %v, want [spec.apply]", got)
	}

	// Escalate through the control plane: the adapt event carries the
	// pipeline name and moves the framework's trace rung.
	p, _ := gk.Pipeline("web")
	if err := gk.StepControllers(clock.now()); err != nil {
		t.Fatal(err)
	}
	drive(t, p, 100)
	clock.advance(time.Second)
	if err := gk.StepControllers(clock.now()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := events[len(events)-1]
	mu.Unlock()
	if last.Kind != obs.EventAdaptEscalate || last.Pipeline != "web" || last.To != 1 {
		t.Fatalf("escalate event = %+v", last)
	}
	if got := p.Framework().TraceRung(); got != 1 {
		t.Fatalf("trace rung = %d after escalation, want 1", got)
	}

	// A changed re-apply emits spec.apply; a rollback emits spec.rollback.
	dep2, err := ParseDeployment(strings.Replace(adaptSpecText, "capacity 100", "capacity 200", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.Apply(dep2); err != nil {
		t.Fatal(err)
	}
	if _, err := gk.Rollback(); err != nil {
		t.Fatal(err)
	}
	got := kinds()
	if len(got) < 4 || got[len(got)-2] != obs.EventSpecApply || got[len(got)-1] != obs.EventSpecRollback {
		t.Fatalf("event kinds = %v, want …, spec.apply, spec.rollback", got)
	}
}

func TestGatekeeperExposition(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment(adaptSpecText)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	p, _ := gk.Pipeline("web")
	drive(t, p, 3)

	e := metrics.NewExposition()
	gk.ExpositionInto(e, "node-1")
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := metrics.ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`aipow_issued{pipeline="web",node="node-1"} 3`,
		`aipow_serving_latency_ms_count{pipeline="web",node="node-1",stage="decide"} 3`,
		`aipow_adapt_level{pipeline="web",node="node-1"}`,
		`# TYPE aipow_serving_latency_ms histogram`,
		`# TYPE aipow_issued counter`,
		`# TYPE aipow_adapt_level gauge`,
		`# TYPE aipow_tracker_entries gauge`,
		`# TYPE aipow_tracker_slab_utilization gauge`,
		`# TYPE aipow_tracker_evictions counter`,
		`aipow_tracker_capacity{pipeline="web",node="node-1"}`,
		`aipow_tracker_slab_slots{pipeline="web",node="node-1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestGatekeeperReplayEvictions overfills a pipeline's 2-seed replay
// cache with five redemptions and reads the three live evictions back
// from both the stats map and the exposition; a pipeline without a
// replay cache reports neither.
func TestGatekeeperReplayEvictions(t *testing.T) {
	spec := gkSpec()
	spec.Pipelines[0].ReplayCache = 2
	spec.Pipelines[1].ReplayCache = -1
	gk, err := NewGatekeeper(newTestRegistry(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	web := gk.Route("/", "")
	for i := 0; i < 5; i++ {
		dec, err := web.Decide(core.RequestContext{IP: "10.0.0.9"})
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
		if err != nil {
			t.Fatal(err)
		}
		if err := web.Verify(sol, "10.0.0.9"); err != nil {
			t.Fatal(err)
		}
	}

	stats := make(map[string]float64)
	gk.StatsInto(stats)
	if got := stats["web.replay.evictions"]; got != 3 {
		t.Errorf("web.replay.evictions = %v, want 3", got)
	}
	if _, ok := stats["api.replay.evictions"]; ok {
		t.Error("api.replay.evictions reported without a replay cache")
	}
	e := metrics.NewExposition()
	gk.ExpositionInto(e, "")
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# TYPE aipow_replay_evictions counter`,
		`aipow_replay_evictions{pipeline="web"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `aipow_replay_evictions{pipeline="api"}`) {
		t.Error("exposition reports replay evictions for a pipeline without a replay cache")
	}
}
