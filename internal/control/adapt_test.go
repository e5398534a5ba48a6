package control

import (
	"strings"
	"sync"
	"testing"
	"time"

	"aipow/internal/core"
)

// manualClock is a test clock for controller stepping.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

const adaptSpecText = `
pipeline web
  scorer threat
  source store
  policy policy1
  adapt capacity 100
  adapt window 3
  adapt interval 1s
  adapt escalate(when=rate>50, policy=policy2, hold=5s)
`

func TestParseDeploymentAdaptText(t *testing.T) {
	dep, err := ParseDeployment(adaptSpecText)
	if err != nil {
		t.Fatal(err)
	}
	a := dep.Pipelines[0].Adapt
	if a == nil {
		t.Fatal("adapt section not parsed")
	}
	if a.Capacity != 100 || a.Window != 3 || a.Interval != Duration(time.Second) || len(a.Rules) != 1 {
		t.Fatalf("unexpected adapt spec: %+v", a)
	}
	if a.Rules[0] != "escalate(when=rate>50, policy=policy2, hold=5s)" {
		t.Fatalf("rule not preserved verbatim: %q", a.Rules[0])
	}

	// The canonical JSON form round-trips through ParseDeployment.
	buf, err := dep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := ParseDeployment(string(buf))
	if err != nil {
		t.Fatalf("re-parse canonical JSON: %v", err)
	}
	if !specEqual(dep2.Pipelines[0], dep.Pipelines[0]) {
		t.Fatalf("adapt section changed across the JSON round trip: %+v vs %+v", dep2.Pipelines[0].Adapt, a)
	}
}

func TestParseDeploymentAdaptErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			"bad rule",
			"pipeline web\n scorer threat\n policy policy1\n adapt escalate(policy=policy2)",
			"missing when",
		},
		{
			"unknown setting",
			"pipeline web\n scorer threat\n policy policy1\n adapt bogus 3",
			"unknown adapt setting",
		},
		{
			"duplicate scalar",
			"pipeline web\n scorer threat\n policy policy1\n adapt capacity 10\n adapt capacity 20\n adapt load-shift 1",
			"duplicate adapt capacity",
		},
		{
			"empty section",
			"pipeline web\n scorer threat\n policy policy1\n adapt capacity 10",
			"neither escalate rules nor load-shift",
		},
		{
			"bad interval",
			"pipeline web\n scorer threat\n policy policy1\n adapt interval soon",
			"adapt interval",
		},
		{
			"load-shift without capacity",
			"pipeline web\n scorer threat\n policy policy1\n adapt load-shift 4",
			"require `adapt capacity",
		},
		{
			"load rule without capacity",
			"pipeline web\n scorer threat\n policy policy1\n adapt escalate(when=load>0.8, policy=policy2)",
			"require `adapt capacity",
		},
		{
			"negative load-shift",
			"pipeline web\n scorer threat\n policy policy1\n adapt load-shift -2",
			"negative load-shift",
		},
	}
	for _, tc := range cases {
		_, err := ParseDeployment(tc.src)
		if err == nil {
			t.Fatalf("%s: parse unexpectedly succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestSpecEqualAdapt(t *testing.T) {
	base := PipelineSpec{Name: "w", Scorer: "threat", Policy: "policy1"}
	withAdapt := base
	withAdapt.Adapt = &AdaptSpec{Rules: []string{"escalate(when=rate>1, policy=policy2)"}}
	if specEqual(base, withAdapt) {
		t.Fatal("adapt section ignored by specEqual")
	}
	other := base
	other.Adapt = &AdaptSpec{Rules: []string{"escalate(when=rate>1, policy=policy2)"}}
	if !specEqual(withAdapt, other) {
		t.Fatal("identical adapt sections compare unequal")
	}
	other.Adapt.Rules = append(other.Adapt.Rules, "escalate(when=load>0.5, policy=policy2)")
	if specEqual(withAdapt, other) {
		t.Fatal("differing rule ladders compare equal")
	}
}

// buildAdaptivePipeline compiles the adaptive test deployment on a manual
// clock.
func buildAdaptivePipeline(t *testing.T) (*Pipeline, *manualClock) {
	t.Helper()
	clock := newManualClock()
	reg := newTestRegistry(t)
	reg.now = clock.now
	dep, err := ParseDeployment(adaptSpecText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Build(dep.Pipelines[0])
	if err != nil {
		t.Fatal(err)
	}
	return p, clock
}

// drive runs n decisions against the pipeline.
func drive(t *testing.T, p *Pipeline, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Framework().Decide(core.RequestContext{IP: "10.0.0.1"}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineControllerClosedLoop(t *testing.T) {
	p, clock := buildAdaptivePipeline(t)
	ctrl := p.Controller()
	if ctrl == nil {
		t.Fatal("adapt section produced no controller")
	}

	// 10.0.0.1 scores 0: policy1 issues difficulty 1, policy2 issues 5.
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 1 {
		t.Fatalf("base difficulty = %d, want 1 (policy1)", d)
	}

	// Quiet step seeds the sampler; then a 100/s burst escalates.
	if err := p.StepController(clock.now()); err != nil {
		t.Fatal(err)
	}
	drive(t, p, 100)
	clock.advance(time.Second)
	if err := p.StepController(clock.now()); err != nil {
		t.Fatal(err)
	}
	if ctrl.Level() != 1 {
		t.Fatalf("level = %d after burst, want 1", ctrl.Level())
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 5 {
		t.Fatalf("escalated difficulty = %d, want 5 (policy2)", d)
	}

	// A controller swap is declared behavior: re-applying the unchanged
	// spec must be a no-op that keeps the escalation (and the controller
	// instance) intact.
	spec := p.Spec()
	if err := p.Apply(spec); err != nil {
		t.Fatal(err)
	}
	if p.Controller() != ctrl {
		t.Fatal("no-op apply replaced the controller")
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 5 {
		t.Fatal("no-op apply reset the escalated policy")
	}

	// Idle time decays the rate; after the 5 s hold the controller steps
	// back down to the declared policy.
	for i := 0; i < 10; i++ {
		clock.advance(time.Second)
		if err := p.StepController(clock.now()); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.Level() != 0 {
		t.Fatalf("level = %d after idle + hold, want 0", ctrl.Level())
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 1 {
		t.Fatalf("de-escalated difficulty = %d, want 1 (policy1)", d)
	}
	if got := ctrl.Swaps(); got != 2 {
		t.Fatalf("controller swaps = %d, want 2", got)
	}
}

func TestApplyChangeResetsController(t *testing.T) {
	p, clock := buildAdaptivePipeline(t)
	old := p.Controller()

	// Escalate first.
	if err := p.StepController(clock.now()); err != nil {
		t.Fatal(err)
	}
	drive(t, p, 100)
	clock.advance(time.Second)
	if err := p.StepController(clock.now()); err != nil {
		t.Fatal(err)
	}
	if old.Level() != 1 {
		t.Fatalf("setup: not escalated")
	}

	// A real change rebuilds the controller at base level: the declared
	// spec wins over accumulated escalation state.
	spec := p.Spec()
	bypass := 0.5
	spec.BypassBelow = &bypass
	if err := p.Apply(spec); err != nil {
		t.Fatal(err)
	}
	fresh := p.Controller()
	if fresh == old {
		t.Fatal("apply with changes kept the old controller")
	}
	if fresh.Level() != 0 {
		t.Fatalf("fresh controller level = %d, want 0", fresh.Level())
	}
	// The detached controller can no longer steer the pipeline.
	if d := decideDifficulty(t, p.Framework(), "10.0.0.9"); d != 11 {
		t.Fatalf("post-apply difficulty = %d, want 11 (policy1 base)", d)
	}
}

func TestAdaptLoadShift(t *testing.T) {
	clock := newManualClock()
	reg := newTestRegistry(t)
	reg.now = clock.now
	dep, err := ParseDeployment(`
pipeline web
  scorer threat
  source store
  policy policy1
  adapt capacity 100
  adapt load-shift 4
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Build(dep.Pipelines[0])
	if err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 1 {
		t.Fatalf("unloaded difficulty = %d, want 1", d)
	}
	if err := p.StepController(clock.now()); err != nil {
		t.Fatal(err)
	}
	drive(t, p, 400) // 400/s ≫ capacity 100: load saturates at 1
	clock.advance(time.Second)
	for i := 0; i < 8; i++ { // EWMA warms past capacity over a few steps
		if err := p.StepController(clock.now()); err != nil {
			t.Fatal(err)
		}
		drive(t, p, 400)
		clock.advance(time.Second)
	}
	if load := p.Controller().Sampler().Load(); load != 1 {
		t.Fatalf("load = %v, want saturated 1", load)
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.1"); d != 5 {
		t.Fatalf("loaded difficulty = %d, want 1+4 shift", d)
	}
}

func TestGatekeeperHistoryAndRollback(t *testing.T) {
	reg := newTestRegistry(t)
	depA, err := ParseDeployment("pipeline web\n scorer threat\n source store\n policy fixed(difficulty=3)")
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, depA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gk.Rollback(); err == nil {
		t.Fatal("rollback with a single generation unexpectedly succeeded")
	}

	depB, err := ParseDeployment("pipeline web\n scorer threat\n source store\n policy fixed(difficulty=7)")
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.Apply(depB); err != nil {
		t.Fatal(err)
	}
	// Re-applying the same document must not spam the rollback log.
	if err := gk.Apply(depB); err != nil {
		t.Fatal(err)
	}
	hist := gk.History()
	if len(hist) != 2 || hist[0].Seq != 1 || hist[1].Seq != 2 {
		t.Fatalf("unexpected history: %+v", hist)
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.1"); d != 7 {
		t.Fatalf("difficulty = %d, want 7 before rollback", d)
	}

	prev, err := gk.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if prev.Pipelines[0].Policy != "fixed(difficulty=3)" {
		t.Fatalf("rollback returned wrong spec: %+v", prev.Pipelines[0])
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.1"); d != 3 {
		t.Fatalf("difficulty = %d, want 3 after rollback", d)
	}
	if got := len(gk.History()); got != 1 {
		t.Fatalf("history length = %d after rollback, want 1", got)
	}
	if _, err := gk.Rollback(); err == nil {
		t.Fatal("second rollback unexpectedly succeeded")
	}
}

func TestGatekeeperHistoryBounded(t *testing.T) {
	reg := newTestRegistry(t)
	dep := func(d string) *DeploymentSpec {
		spec, err := ParseDeployment("pipeline web\n scorer threat\n source store\n policy fixed(difficulty=" + d + ")")
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	gk, err := NewGatekeeper(reg, dep("1"))
	if err != nil {
		t.Fatal(err)
	}
	diffs := []string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}
	for _, d := range diffs {
		if err := gk.Apply(dep(d)); err != nil {
			t.Fatal(err)
		}
	}
	hist := gk.History()
	if len(hist) != SpecHistoryLimit {
		t.Fatalf("history length = %d, want bounded at %d", len(hist), SpecHistoryLimit)
	}
	if hist[len(hist)-1].Seq != 11 {
		t.Fatalf("latest seq = %d, want 11", hist[len(hist)-1].Seq)
	}
}

func TestGatekeeperStatsIncludeController(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment(adaptSpecText)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.StepControllers(time.Now()); err != nil {
		t.Fatal(err)
	}
	stats := make(map[string]float64)
	gk.StatsInto(stats)
	for _, key := range []string{"web.issued", "web.adapt.level", "web.adapt.swaps", "web.adapt.rate"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q (got %v)", key, stats)
		}
	}
}

func TestRegistryBuildRejectsBadAdaptPolicy(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment(`
pipeline web
  scorer threat
  policy policy1
  adapt escalate(when=rate>1, policy=nosuchpolicy)
`)
	if err != nil {
		t.Fatal(err) // grammar is fine; resolution must fail at build
	}
	if _, err := reg.Build(dep.Pipelines[0]); err == nil {
		t.Fatal("build with an unresolvable escalation policy unexpectedly succeeded")
	}
}

// TestAdaptRungShapePolicy pins that the shape(...) combinator is a legal
// adapt escalation target: the rung's shaped policy compiles through the
// registry (nested component spec included), parses from the text DSL,
// and a bad shape rung fails at validation time.
func TestAdaptRungShapePolicy(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment(`
pipeline web
  scorer threat
  source store
  policy policy1
  adapt escalate(when=rate>10, policy=shape(inner=fixed(difficulty=16), floor=0.25), hold=5s)
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Build(dep.Pipelines[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Controller() == nil {
		t.Fatal("no controller attached")
	}
	rules := p.Controller().Rules()
	if len(rules) != 1 || !strings.Contains(rules[0], "shape(inner=fixed(difficulty=16)") {
		t.Fatalf("rules = %v, want the shape rung", rules)
	}
	// A rung whose shape inner does not resolve fails at Build (the
	// grammar itself is fine, so parsing accepts it).
	bad, err := ParseDeployment(`
pipeline web
  scorer threat
  source store
  policy policy1
  adapt escalate(when=rate>10, policy=shape(inner=nope), hold=5s)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Build(bad.Pipelines[0]); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("Build with unresolvable shape inner: %v", err)
	}
}
