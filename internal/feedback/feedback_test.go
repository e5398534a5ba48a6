package feedback

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// fakeSource is a hand-cranked counter source: tests set cumulative
// values between steps.
type fakeSource struct {
	mu                                              sync.Mutex
	issued, verified, rejected, bypassed, scoreErrs float64
	diffIssued, diffVerified                        [puzzle.MaxDifficulty + 1]uint64
}

func (f *fakeSource) StatsInto(dst map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dst["issued"] = f.issued
	dst["verified"] = f.verified
	dst["rejected"] = f.rejected
	dst["bypassed"] = f.bypassed
	dst["score_errors"] = f.scoreErrs
}

func (f *fakeSource) DifficultyProfileInto(issued, verified []uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	copy(issued, f.diffIssued[:])
	copy(verified, f.diffVerified[:])
}

// issue records n issues at difficulty d on the cumulative counters.
func (f *fakeSource) issue(d int, n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.issued += float64(n)
	f.diffIssued[d] += n
}

// verify records n verifies at difficulty d.
func (f *fakeSource) verify(d int, n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.verified += float64(n)
	f.diffVerified[d] += n
}

func (f *fakeSource) reject(n uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejected += float64(n)
}

// epoch is the tests' deterministic clock origin.
var epoch = time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)

func at(step int) time.Time { return epoch.Add(time.Duration(step) * time.Second) }

func TestSamplerRateAndLoad(t *testing.T) {
	s, err := NewSampler(SamplerConfig{Capacity: 200, Alpha: 0.5, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{}
	s.Bind(src)

	// 100 decisions/s sustained: EWMA (alpha 0.5, seeded by the first
	// sample) converges from 100 immediately.
	s.Step(at(0))
	for i := 1; i <= 5; i++ {
		src.issue(5, 100)
		sig := s.Step(at(i))
		if sig.Rate != 100 {
			t.Fatalf("step %d: rate = %v, want 100", i, sig.Rate)
		}
		if sig.Load != 0.5 {
			t.Fatalf("step %d: load = %v, want 0.5", i, sig.Load)
		}
	}
	// Rate doubles: EWMA walks 100 → 150 → 175 (alpha 0.5 decay table).
	src.issue(5, 200)
	if got := s.Step(at(6)).Rate; got != 150 {
		t.Fatalf("after one 200/s step: rate = %v, want 150", got)
	}
	src.issue(5, 200)
	if got := s.Step(at(7)).Rate; got != 175 {
		t.Fatalf("after two 200/s steps: rate = %v, want 175", got)
	}
	// Load saturates at 1 even when rate exceeds capacity.
	for i := 8; i < 16; i++ {
		src.issue(5, 1000)
		s.Step(at(i))
	}
	if got := s.Load(); got != 1 {
		t.Fatalf("load = %v, want clamped 1", got)
	}
}

func TestSamplerWindowedRatios(t *testing.T) {
	s, err := NewSampler(SamplerConfig{Window: 3, HardDifficulty: 10})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{}
	s.Bind(src)

	s.Step(at(0))
	src.issue(4, 60)
	src.issue(12, 40)
	src.verify(4, 50)
	src.verify(12, 10)
	src.reject(50)
	sig := s.Step(at(1))
	if got, want := sig.VerifyFailRate, 50.0/110.0; !approx(got, want) {
		t.Fatalf("verify_fail_rate = %v, want %v", got, want)
	}
	if got, want := sig.MeanDifficulty, (4.0*60+12.0*40)/100.0; !approx(got, want) {
		t.Fatalf("mean_difficulty = %v, want %v", got, want)
	}
	if got := sig.DiffP90; got != 12 {
		t.Fatalf("diff_p90 = %v, want 12", got)
	}
	if got, want := sig.HardSolveFrac, 0.25; !approx(got, want) {
		t.Fatalf("hard_solve_frac = %v, want %v", got, want)
	}

	// Window rotation: after 3 idle steps the deltas age out and the
	// ratios return to zero.
	for i := 2; i <= 4; i++ {
		sig = s.Step(at(i))
	}
	if sig.VerifyFailRate != 0 || sig.MeanDifficulty != 0 || sig.HardSolveFrac != 0 {
		t.Fatalf("signals did not age out of the window: %+v", sig)
	}
}

func TestSamplerHardSolveFracClamped(t *testing.T) {
	s, err := NewSampler(SamplerConfig{Window: 2, HardDifficulty: 10})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSource{}
	s.Bind(src)
	s.Step(at(0))
	// Solves lag issues: a window can see more hard verifies than issues.
	src.issue(12, 1)
	src.verify(12, 5)
	if got := s.Step(at(1)).HardSolveFrac; got != 1 {
		t.Fatalf("hard_solve_frac = %v, want clamped 1", got)
	}
}

func TestSamplerUnboundIsInert(t *testing.T) {
	s, err := NewSampler(SamplerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sig := s.Step(at(0)); sig != (Signals{}) {
		t.Fatalf("unbound sampler produced signals: %+v", sig)
	}
}

func TestParseCondition(t *testing.T) {
	good := map[string]Condition{
		"verify_fail_rate>0.3": {Signal: "verify_fail_rate", Op: ">", Threshold: 0.3},
		"load >= 0.8":          {Signal: "load", Op: ">=", Threshold: 0.8},
		"hard_solve_frac<=0.5": {Signal: "hard_solve_frac", Op: "<=", Threshold: 0.5},
		"rate_p90 < 10":        {Signal: "rate_p90", Op: "<", Threshold: 10},
	}
	for expr, want := range good {
		got, err := ParseCondition(expr)
		if err != nil {
			t.Fatalf("ParseCondition(%q): %v", expr, err)
		}
		if got != want {
			t.Fatalf("ParseCondition(%q) = %+v, want %+v", expr, got, want)
		}
	}
	for _, expr := range []string{"", "load", "load>", "load>x", "bogus>1", "load==1"} {
		if _, err := ParseCondition(expr); err == nil {
			t.Fatalf("ParseCondition(%q) unexpectedly succeeded", expr)
		}
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("escalate(when=verify_fail_rate>0.3, policy=policy2, hold=30s)")
	if err != nil {
		t.Fatal(err)
	}
	if r.When.Signal != "verify_fail_rate" || r.Policy != "policy2" || r.Hold != 30*time.Second || r.After != 1 {
		t.Fatalf("unexpected rule: %+v", r)
	}

	// The policy value may itself be a parameterized component spec.
	r, err = ParseRule("escalate(when=load>0.8, policy=fixed(difficulty=16), hold=10s, after=3, unless=hard_solve_frac>0.5)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "fixed(difficulty=16)" || r.After != 3 || r.Unless == nil || r.Unless.Signal != "hard_solve_frac" {
		t.Fatalf("unexpected rule: %+v", r)
	}

	// Round trip through String.
	r2, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if r2.Policy != r.Policy || r2.When != r.When || *r2.Unless != *r.Unless || r2.Hold != r.Hold || r2.After != r.After {
		t.Fatalf("round trip changed the rule: %+v vs %+v", r, r2)
	}

	bad := []string{
		"",
		"deescalate(when=load>1, policy=policy2)",
		"escalate",
		"escalate(policy=policy2)",
		"escalate(when=load>0.5)",
		"escalate(when=load>0.5, policy=policy2, hold=nope)",
		"escalate(when=load>0.5, policy=policy2, hold=-3s)",
		"escalate(when=load>0.5, policy=policy2, after=0)",
		"escalate(when=load>0.5, policy=policy2, bogus=1)",
		"escalate(when=nosuchsignal>0.5, policy=policy2)",
		"escalate(when=load>0.5, policy=policy2, unless=wat)",
		"escalate(when=load>0.5, when=load>0.6, policy=policy2)",
	}
	for _, spec := range bad {
		if _, err := ParseRule(spec); err == nil {
			t.Fatalf("ParseRule(%q) unexpectedly succeeded", spec)
		}
	}
}

// swapRecorder records installed policies.
type swapRecorder struct {
	mu    sync.Mutex
	names []string
	fail  bool
}

func (r *swapRecorder) SwapPolicy(p policy.Policy) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return fmt.Errorf("swap refused")
	}
	r.names = append(r.names, p.Name())
	return nil
}

func (r *swapRecorder) installed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// newTestController wires a controller over a fake source with 1 s steps.
func newTestController(t *testing.T, src *fakeSource, target Target, rules ...string) *Controller {
	t.Helper()
	parsed := make([]Rule, 0, len(rules))
	for _, r := range rules {
		pr, err := ParseRule(r)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, pr)
	}
	base, err := policy.Parse("policy1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Sampler: SamplerConfig{Capacity: 100, Alpha: 1, Window: 2},
		Rules:   parsed,
		Compile: policy.Parse,
		Base:    base,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(target, src)
	return c
}

func TestControllerEscalateAndDeescalate(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=3s)")

	step := func(i int, decisionsPerSec uint64) {
		src.issue(5, decisionsPerSec)
		if err := c.Step(at(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	step(0, 10) // seeds the rate EWMA
	step(1, 10)
	if c.Level() != 0 {
		t.Fatalf("escalated on calm traffic")
	}
	step(2, 500) // attack onset: alpha 1 ⇒ rate jumps immediately
	if c.Level() != 1 {
		t.Fatalf("level = %d after onset, want 1", c.Level())
	}
	// Attack ends; the hold keeps the level up until 3 s have passed
	// since the condition last held (the escalation instant).
	step(3, 10)
	step(4, 10)
	if c.Level() != 1 {
		t.Fatalf("de-escalated before hold expired")
	}
	step(5, 10) // 3 s since the escalation at step 2
	if c.Level() != 0 {
		t.Fatalf("level = %d after hold, want 0", c.Level())
	}
	want := []string{"policy2", "policy1"}
	got := target.installed()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("installed policies %v, want %v", got, want)
	}
	if c.Swaps() != 2 {
		t.Fatalf("swaps = %d, want 2", c.Swaps())
	}
	tr := c.Transitions()
	if len(tr) != 2 || tr[0].To != 1 || tr[1].To != 0 || tr[0].Rule == "" || tr[1].Rule != "" {
		t.Fatalf("unexpected transitions: %+v", tr)
	}
}

func TestControllerFlapGuard(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=5s)")

	// Pulse on/off every other second for 20 s: the hold window (5 s)
	// always outlives the gap (1 s), so exactly one escalation happens.
	src.issue(5, 10)
	if err := c.Step(at(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		n := uint64(10)
		if i%2 == 0 {
			n = 500
		}
		src.issue(5, n)
		if err := c.Step(at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Level() != 1 {
		t.Fatalf("level = %d mid-pulsing, want 1 (held)", c.Level())
	}
	if c.Swaps() != 1 {
		t.Fatalf("swaps = %d under pulsing signal, want 1 (no flapping)", c.Swaps())
	}
	// Quiet for hold: exactly one de-escalation.
	for i := 21; i <= 28; i++ {
		src.issue(5, 10)
		if err := c.Step(at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Level() != 0 || c.Swaps() != 2 {
		t.Fatalf("level %d swaps %d after quiet period, want 0/2", c.Level(), c.Swaps())
	}
}

func TestControllerAfterDebounce(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=2s, after=3)")

	src.issue(5, 10)
	if err := c.Step(at(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		src.issue(5, 500)
		if err := c.Step(at(i)); err != nil {
			t.Fatal(err)
		}
		if c.Level() != 0 {
			t.Fatalf("escalated after %d high steps, want after=3 debounce", i)
		}
	}
	src.issue(5, 500)
	if err := c.Step(at(3)); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 1 {
		t.Fatalf("did not escalate after 3 sustained steps")
	}
}

func TestControllerUnlessGatesEscalation(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=fixed(difficulty=16), hold=2s, unless=hard_solve_frac>0.5)")

	src.issue(5, 10)
	if err := c.Step(at(0)); err != nil {
		t.Fatal(err)
	}
	// High volume, but the hard puzzles are being solved — a misscored
	// flash crowd, not a botnet. The gate must keep the controller down.
	for i := 1; i <= 5; i++ {
		src.issue(5, 400)
		src.issue(14, 100)
		src.verify(14, 90)
		if err := c.Step(at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Level() != 0 || c.Swaps() != 0 {
		t.Fatalf("escalated through the FP gate: level %d swaps %d", c.Level(), c.Swaps())
	}
	// Same volume with abandoned hard puzzles: a real attack — escalate.
	for i := 6; i <= 9; i++ {
		src.issue(5, 400)
		src.issue(14, 100)
		if err := c.Step(at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Level() != 1 {
		t.Fatalf("did not escalate once the FP gate cleared")
	}
}

func TestControllerLadderBoundedDeescalation(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=1s)",
		"escalate(when=rate>300, policy=fixed(difficulty=18), hold=1s)")

	src.issue(5, 10)
	if err := c.Step(at(0)); err != nil {
		t.Fatal(err)
	}
	src.issue(5, 500)
	if err := c.Step(at(1)); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 2 {
		t.Fatalf("level = %d under full flood, want straight to 2", c.Level())
	}
	// Collapse of the signal: both holds expire together, but levels
	// unwind one per step, not at once.
	src.issue(5, 10)
	if err := c.Step(at(2)); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 1 {
		t.Fatalf("level = %d after first hold, want 1 (bounded de-escalation)", c.Level())
	}
	src.issue(5, 10)
	if err := c.Step(at(3)); err != nil {
		t.Fatal(err)
	}
	if c.Level() != 0 {
		t.Fatalf("level = %d, want 0", c.Level())
	}
	want := []string{"fixed(18)", "policy2", "policy1"}
	got := target.installed()
	if len(got) != 3 || got[1] != "policy2" {
		t.Fatalf("installed %v, want shapes %v", got, want)
	}
}

func TestControllerSwapErrorKeepsLevel(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{fail: true}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=1s)")
	src.issue(5, 10)
	if err := c.Step(at(0)); err != nil {
		t.Fatal(err)
	}
	src.issue(5, 500)
	if err := c.Step(at(1)); err == nil {
		t.Fatal("swap failure not surfaced")
	}
	if c.Level() != 0 || c.Swaps() != 0 {
		t.Fatalf("level advanced past a failed swap: level %d swaps %d", c.Level(), c.Swaps())
	}
}

func TestControllerMaybeStepInterval(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	base, err := policy.Parse("policy1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Interval: 5 * time.Second, Compile: policy.Parse, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(target, src)
	ran, err := c.MaybeStep(at(0))
	if err != nil || !ran {
		t.Fatalf("first MaybeStep: ran=%v err=%v", ran, err)
	}
	ran, err = c.MaybeStep(at(2))
	if err != nil || ran {
		t.Fatalf("early MaybeStep ran (interval not respected)")
	}
	ran, err = c.MaybeStep(at(5))
	if err != nil || !ran {
		t.Fatalf("due MaybeStep skipped")
	}
}

func TestNewControllerValidation(t *testing.T) {
	rule, err := ParseRule("escalate(when=rate>1, policy=policy2)")
	if err != nil {
		t.Fatal(err)
	}
	base, err := policy.Parse("policy1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Interval: -time.Second},
		{Rules: []Rule{rule}, Base: base},            // no compiler
		{Rules: []Rule{rule}, Compile: policy.Parse}, // no base
		{Rules: []Rule{rule}, Compile: policy.Parse, Base: base, Sampler: SamplerConfig{Capacity: -1}},
		{Rules: []Rule{{When: rule.When, Policy: "nosuch", After: 1}}, Compile: policy.Parse, Base: base},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: New unexpectedly succeeded", i)
		}
	}
}

// TestControllerConcurrentObservers is the -race hammer: one stepping
// goroutine against concurrent hot-path readers (Load, Signals) and a
// stats scraper.
func TestControllerConcurrentObservers(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	c := newTestController(t, src, target,
		"escalate(when=rate>50, policy=policy2, hold=1s)")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make(map[string]float64, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Sampler().Load()
				_ = c.Sampler().Signals()
				c.StatsPrefixInto("p.", dst)
				_ = c.Level()
				_ = c.Transitions()
			}
		}()
	}
	// Writers hammer the source counters while the controller steps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			src.issue(5+i%10, 7)
			src.verify(5+i%10, 3)
		}
	}()
	for i := 0; i < 500; i++ {
		if err := c.Step(at(i)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func TestControllerEmitsAdaptEvents(t *testing.T) {
	src := &fakeSource{}
	target := &swapRecorder{}
	var events []obs.Event
	rule, err := ParseRule("escalate(when=rate>50, policy=policy2, hold=3s)")
	if err != nil {
		t.Fatal(err)
	}
	base, err := policy.Parse("policy1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Sampler: SamplerConfig{Capacity: 100, Alpha: 1, Window: 2},
		Rules:   []Rule{rule},
		Compile: policy.Parse,
		Base:    base,
		Events:  func(e obs.Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(target, src)

	step := func(i int, decisionsPerSec uint64) {
		src.issue(5, decisionsPerSec)
		if err := c.Step(at(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	step(0, 10)
	step(1, 10)
	step(2, 500) // onset → escalate
	step(3, 10)
	step(4, 10)
	step(5, 10) // hold expired → de-escalate

	if len(events) != 2 {
		t.Fatalf("events = %d, want 2: %+v", len(events), events)
	}
	esc := events[0]
	if esc.Kind != obs.EventAdaptEscalate || esc.From != 0 || esc.To != 1 {
		t.Errorf("escalate event = %+v", esc)
	}
	if esc.Rule != "rate>50" || esc.Signal != "rate" {
		t.Errorf("escalate rule/signal = %q/%q, want rate>50/rate", esc.Rule, esc.Signal)
	}
	if esc.Value <= 50 {
		t.Errorf("escalate signal value = %v, want the >50 reading that tripped the rule", esc.Value)
	}
	if !esc.At.Equal(at(2)) {
		t.Errorf("escalate at %v, want %v", esc.At, at(2))
	}
	de := events[1]
	if de.Kind != obs.EventAdaptDeescalate || de.From != 1 || de.To != 0 {
		t.Errorf("de-escalate event = %+v", de)
	}
	if de.Signal != "rate" || de.Value > 50 {
		t.Errorf("de-escalate signal = %q value %v, want calm rate reading", de.Signal, de.Value)
	}
}
