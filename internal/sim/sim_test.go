package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"aipow/internal/obs"
)

// testNetwork is a fast network for unit scenarios.
func testNetwork() Network {
	return Network{OneWay: 5 * time.Millisecond, IssueTime: 300 * time.Microsecond, VerifyTime: 300 * time.Microsecond}
}

// dabrSpec is the paper's pipeline over the scenario feed under pol, plus
// any further spec lines.
func dabrSpec(pol string, lines ...string) string {
	return strings.Join(append([]string{"scorer dabr", "source combined", "policy " + pol}, lines...), "\n")
}

// hybridSpec is dabrSpec with the model blended with the live request
// rate, saturating at 3 requests per second.
func hybridSpec(pol string, lines ...string) string {
	return strings.Replace(dabrSpec(pol, lines...), "scorer dabr", "scorer hybrid(inner=dabr, saturation=3)", 1)
}

// respec replaces the spec line whose first word is stmt by line.
func respec(t *testing.T, spec, stmt, line string) string {
	t.Helper()
	lines := strings.Split(spec, "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) > 0 && f[0] == stmt {
			lines[i] = line
			return strings.Join(lines, "\n")
		}
	}
	t.Fatalf("spec has no %s line:\n%s", stmt, spec)
	return ""
}

// TestSuiteInvariantsHold is the scenario-table regression gate: every
// suite scenario runs end to end (at reduced scale, so -race stays fast)
// and every declared asymmetry invariant must hold. A failure here means a
// change eroded the defense quality the suite pins down.
func TestSuiteInvariantsHold(t *testing.T) {
	for _, sc := range DefaultSuite(4, 0.2) {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			invs, pass := res.Evaluate()
			for _, inv := range invs {
				if !inv.Pass {
					bounds := ""
					if inv.Min != nil {
						bounds += fmt.Sprintf(" min=%g", *inv.Min)
					}
					if inv.Max != nil {
						bounds += fmt.Sprintf(" max=%g", *inv.Max)
					}
					t.Errorf("invariant %s violated: value=%v%s", inv.Name, inv.Value, bounds)
				}
			}
			if !pass {
				t.Error("scenario failed")
			}

			// Cross-check the engine's accounting against the framework's
			// own counters: every challenge the engine saw was issued by
			// the framework, and every challenged request it served —
			// modeled or really solved — was verified by it.
			total, _ := res.scope("", "")
			if issued := uint64(res.FrameworkStats["issued"]); issued != total.challenged {
				t.Errorf("framework issued %d, engine challenged %d", issued, total.challenged)
			}
			if total.decideErrors != 0 {
				t.Errorf("decide errors: %d", total.decideErrors)
			}
			if verified := uint64(res.FrameworkStats["verified"]); verified != total.served-total.bypassed {
				t.Errorf("framework verified %d, engine served %d − bypassed %d", verified, total.served, total.bypassed)
			}
		})
	}
}

// TestRunDeterministic runs one multi-population, multi-phase scenario
// several times and demands byte-identical reports — the property the CI
// diff gate depends on.
func TestRunDeterministic(t *testing.T) {
	scenario := func() Scenario {
		return Scenario{
			Name: "determinism",
			Seed: 99,
			Phases: []Phase{
				{Name: "calm", Duration: 5 * time.Second},
				{Name: "burst", Duration: 5 * time.Second, RateScale: map[string]float64{"bots": 5}},
			},
			Populations: []Population{
				{Name: "users", Legit: true, Clients: 20, Rate: 1,
					Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedBenign},
				{Name: "bots", Clients: 40, Rate: 2,
					Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedMalicious,
					IPPool: 120, RotateEvery: 2 * time.Second, FailRatio: 0.3,
					Paths: []string{"/a", "/b"}},
			},
			Network: testNetwork(),
			Spec:    hybridSpec("policy2", "window 5s"),
		}
	}
	var first []byte
	for i := 0; i < 3; i++ {
		res, err := Run(scenario())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		rep := res.Report()
		buf, err := rep.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if i == 0 {
			first = buf
			if rep.Populations[0].Outcome.Served == 0 || rep.Populations[1].Outcome.Served == 0 {
				t.Fatal("determinism scenario served nothing; it is not exercising the pipeline")
			}
			continue
		}
		if string(buf) != string(first) {
			t.Fatalf("run %d produced a different report", i)
		}
	}
}

// TestPhaseRateScale verifies that a zero phase scale switches a
// population off and a large one scales it up, with outcomes attributed to
// the right phase.
func TestPhaseRateScale(t *testing.T) {
	res, err := Run(Scenario{
		Name: "phases",
		Seed: 7,
		Phases: []Phase{
			{Name: "off", Duration: 5 * time.Second, RateScale: map[string]float64{"bots": 0}},
			{Name: "on", Duration: 5 * time.Second},
		},
		Populations: []Population{
			{Name: "bots", Clients: 30, Rate: 2, Behavior: BehaviorIgnore, Feed: FeedUnknown},
		},
		Network: testNetwork(),
		Spec:    dabrSpec("policy2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outcomes[0][0].requests; got != 0 {
		t.Errorf("off phase saw %d requests, want 0", got)
	}
	on := res.Outcomes[0][1].requests
	if on < 200 || on > 400 { // Poisson mean 300
		t.Errorf("on phase saw %d requests, want ≈300", on)
	}
	if served := res.Outcomes[0][1].served; served != 0 {
		t.Errorf("ignoring population was served %d times", served)
	}
	if ignored := res.Outcomes[0][1].ignored; ignored != on {
		t.Errorf("ignored = %d, want %d (all challenged walked away)", ignored, on)
	}
}

// TestModeledTTLExpiry verifies the engine applies the challenge TTL to
// modeled verification: a hash rate too slow for the difficulty means the
// solve outlives the challenge.
func TestModeledTTLExpiry(t *testing.T) {
	res, err := Run(Scenario{
		Name:   "expiry",
		Seed:   3,
		Phases: []Phase{{Name: "all", Duration: 5 * time.Second}},
		Populations: []Population{
			// ~2^14 hashes at 100 h/s ≈ 160 s ≫ the 2 s TTL.
			{Name: "slow", Legit: true, Clients: 5, Rate: 1,
				Behavior: BehaviorSolve, HashRate: 100, Feed: FeedMalicious},
		},
		Network: testNetwork(),
		Spec:    dabrSpec("fixed(difficulty=14)", "ttl 2s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0][0]
	if o.expired == 0 {
		t.Fatalf("no expiries despite solve time ≫ TTL (served=%d)", o.served)
	}
	if o.served > o.expired/10 {
		t.Errorf("served %d vs expired %d: expiry modeling is not biting", o.served, o.expired)
	}
}

// TestDrainJumpsToPendingTick guards the drain fast path: a 1 hash/s
// population on a difficulty-22 puzzle schedules completions millions of
// ticks past the horizon, and the drain must jump straight to them rather
// than walk every empty tick (which would hang for minutes).
func TestDrainJumpsToPendingTick(t *testing.T) {
	res, err := Run(Scenario{
		Name:   "drain",
		Seed:   11,
		Phases: []Phase{{Name: "all", Duration: time.Second}},
		Populations: []Population{
			{Name: "glacial", Legit: true, Clients: 3, Rate: 2,
				Behavior: BehaviorSolve, HashRate: 1, Feed: FeedUnknown},
		},
		Network: testNetwork(),
		Spec:    dabrSpec("fixed(difficulty=22)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0][0]
	if o.requests == 0 {
		t.Fatal("no requests generated")
	}
	// Every solve outlives the TTL by orders of magnitude; what matters is
	// that the run completed and accounted for all of them.
	if o.expired+o.served != o.challenged {
		t.Errorf("challenged %d but expired %d + served %d", o.challenged, o.expired, o.served)
	}
	if o.expired == 0 {
		t.Error("glacial solves should expire")
	}
}

// TestRotationShiftsAddresses verifies rotating populations actually move
// through their pool and stable ones do not.
func TestRotationShiftsAddresses(t *testing.T) {
	stable := Population{Clients: 10}
	if got := stable.ipAt(0, 3, 0); got != stable.ipAt(0, 3, 50*time.Second) {
		t.Errorf("stable population rotated: %s", got)
	}
	rot := Population{Clients: 10, IPPool: 40, RotateEvery: 10 * time.Second}
	first := rot.ipAt(1, 3, 0)
	second := rot.ipAt(1, 3, 10*time.Second)
	if first == second {
		t.Errorf("rotation did not move the address (%s)", first)
	}
	if got := rot.ipAt(1, 3, 9*time.Second); got != first {
		t.Errorf("address moved mid-interval: %s vs %s", got, first)
	}
}

// TestScenarioValidation spot-checks the declarative validation errors.
func TestScenarioValidation(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name:   "v",
			Phases: []Phase{{Name: "p", Duration: time.Second}},
			Populations: []Population{{
				Name: "a", Clients: 1, Rate: 1, Behavior: BehaviorIgnore, Feed: FeedUnknown,
			}},
			Spec: dabrSpec("policy2"),
		}
	}
	const rule = "adapt escalate(when=rate>1, policy=policy2)"
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no_phases", func(sc *Scenario) { sc.Phases = nil }},
		{"no_populations", func(sc *Scenario) { sc.Populations = nil }},
		{"dup_population", func(sc *Scenario) { sc.Populations = append(sc.Populations, sc.Populations[0]) }},
		{"bad_scale_target", func(sc *Scenario) { sc.Phases[0].RateScale = map[string]float64{"nope": 2} }},
		{"solver_without_hashrate", func(sc *Scenario) { sc.Populations[0].Behavior = BehaviorSolve }},
		{"bad_fail_ratio", func(sc *Scenario) { sc.Populations[0].FailRatio = 1.5 }},
		{"unknown_metric", func(sc *Scenario) {
			sc.Invariants = []Invariant{AtLeast("nonsense", "", "", 1)}
		}},
		{"unbounded_invariant", func(sc *Scenario) {
			sc.Invariants = []Invariant{{Metric: MetricServed}}
		}},
		{"work_ratio_with_population", func(sc *Scenario) {
			sc.Invariants = []Invariant{AtLeast(MetricWorkRatio, "a", "", 1)}
		}},
		{"unknown_invariant_population", func(sc *Scenario) {
			sc.Invariants = []Invariant{AtLeast(MetricServed, "ghost", "", 1)}
		}},
		{"unknown_invariant_phase", func(sc *Scenario) {
			sc.Invariants = []Invariant{AtLeast(MetricServed, "a", "ghost", 1)}
		}},
		{"bad_swap_policy", func(sc *Scenario) { sc.Phases[0].SwapPolicy = "nope" }},
		{"swap_policy_with_adapt", func(sc *Scenario) {
			sc.Phases[0].SwapPolicy = "policy1"
			sc.Spec = dabrSpec("policy2", rule)
		}},
		{"bad_spec", func(sc *Scenario) { sc.Spec = dabrSpec("policy2", "ttl soon") }},
		{"unknown_scorer", func(sc *Scenario) { sc.Spec = strings.Replace(sc.Spec, "dabr", "nope", 1) }},
		{"adapt_bad_rule", func(sc *Scenario) {
			sc.Spec = dabrSpec("policy2", "adapt escalate(policy=policy2)")
		}},
		{"adapt_unknown_rule_policy", func(sc *Scenario) {
			sc.Spec = dabrSpec("policy2", "adapt escalate(when=rate>1, policy=nope)")
		}},
		{"adapt_metric_without_adapt", func(sc *Scenario) {
			sc.Invariants = []Invariant{AtLeast(MetricAdaptSwaps, "", "", 1)}
		}},
		{"adapt_metric_with_population", func(sc *Scenario) {
			sc.Spec = dabrSpec("policy2", rule)
			sc.Invariants = []Invariant{AtLeast(MetricAdaptSwaps, "a", "", 1)}
		}},
		{"cluster_too_small", func(sc *Scenario) { sc.Cluster = &ClusterSim{Nodes: 1} }},
		{"cluster_bad_degree", func(sc *Scenario) { sc.Cluster = &ClusterSim{Nodes: 3, Degree: 3} }},
		{"cluster_bad_filter_bits", func(sc *Scenario) {
			sc.Cluster = &ClusterSim{Nodes: 2}
			sc.Spec = dabrSpec("policy2", "cluster filter(bits=1000)")
		}},
		{"stripe_without_cluster", func(sc *Scenario) { sc.Populations[0].Stripe = true }},
		{"replay_cross_without_cluster", func(sc *Scenario) {
			sc.Populations[0].Behavior = BehaviorReplayCross
			sc.Populations[0].HashRate = 1000
			sc.RealSolve = true
		}},
		{"replay_cross_without_realsolve", func(sc *Scenario) {
			sc.Cluster = &ClusterSim{Nodes: 2}
			sc.Populations[0].Behavior = BehaviorReplayCross
			sc.Populations[0].HashRate = 1000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mutate(&sc)
			if _, err := Run(sc); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}

// TestAdaptiveRunDeterministic reruns a closed-loop scenario and demands
// byte-identical reports: controller stepping (signal estimation and the
// hot swaps it installs) must not introduce scheduling or wall-clock
// dependence.
func TestAdaptiveRunDeterministic(t *testing.T) {
	pick := func() Scenario {
		for _, sc := range DefaultSuite(7, 0.15) {
			if sc.Name == "adaptive-attack-cycle" {
				return sc
			}
		}
		t.Fatal("adaptive-attack-cycle missing from the default suite")
		return Scenario{}
	}
	var first []byte
	for i := 0; i < 3; i++ {
		res, err := Run(pick())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Adapt == nil || res.Adapt.Swaps < 2 {
			t.Fatalf("run %d: controller did not close the loop: %+v", i, res.Adapt)
		}
		rep := res.Report()
		buf, err := rep.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if i == 0 {
			first = buf
			if rep.Adapt == nil || len(rep.Adapt.Transitions) < 2 {
				t.Fatalf("report carries no transitions: %+v", rep.Adapt)
			}
			continue
		}
		if string(buf) != string(first) {
			t.Fatalf("run %d produced a different report", i)
		}
	}
}

// TestClusterRunDeterministic reruns the K-node scenarios and demands
// byte-identical reports: per-node routing, gossip exchange rounds,
// fleet-summed feedback, and cross-node replay scheduling must all be
// free of map-order and wall-clock dependence.
func TestClusterRunDeterministic(t *testing.T) {
	pick := func(name string) Scenario {
		for _, sc := range DefaultSuite(7, 0.15) {
			if sc.Name == name {
				return sc
			}
		}
		t.Fatalf("%s missing from the default suite", name)
		return Scenario{}
	}
	for _, name := range []string{"cluster-striping-fleet", "cluster-replay"} {
		t.Run(name, func(t *testing.T) {
			var first []byte
			for i := 0; i < 3; i++ {
				res, err := Run(pick(name))
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				rep := res.Report()
				if !rep.Pass {
					t.Fatalf("run %d: invariants failed: %+v", i, rep.Invariants)
				}
				buf, err := rep.Marshal()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				if i == 0 {
					first = buf
					continue
				}
				if !bytes.Equal(first, buf) {
					t.Fatalf("run %d produced a different report", i)
				}
			}
		})
	}
}

// TestClusterReplayAccounting pins the cross-node replay semantics at the
// outcome level: every replayed token is rejected (rejected > 0), no
// replay is ever served twice (served never exceeds requests), and the
// honest first redemptions all land.
func TestClusterReplayAccounting(t *testing.T) {
	var sc Scenario
	for _, s := range DefaultSuite(11, 0.15) {
		if s.Name == "cluster-replay" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("cluster-replay missing from the default suite")
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, p := range rep.Populations {
		if p.Name != "replayers" {
			continue
		}
		o := p.Outcome
		if o.Rejected == 0 {
			t.Error("no replays were rejected — the cross-node filter never fired")
		}
		if o.Served > o.Requests {
			t.Errorf("served %d > requests %d: a replayed token was redeemed twice", o.Served, o.Requests)
		}
		if o.Served < o.Requests {
			t.Errorf("served %d < requests %d: an honest first redemption was lost", o.Served, o.Requests)
		}
	}
}

// TestInvariantEvaluation exercises the bound logic on a crafted result.
func TestInvariantEvaluation(t *testing.T) {
	sc := Scenario{
		Name:   "inv",
		Phases: []Phase{{Name: "p", Duration: 10 * time.Second}},
		Populations: []Population{
			{Name: "good", Legit: true, Clients: 1, Rate: 1, Behavior: BehaviorIgnore, Feed: FeedUnknown},
			{Name: "bad", Clients: 1, Rate: 1, Behavior: BehaviorIgnore, Feed: FeedUnknown},
		},
	}
	good, bad := newOutcome(), newOutcome()
	good.requests, good.served, good.solveAttempts = 100, 100, 1000
	bad.requests, bad.served, bad.solveAttempts = 100, 50, 50000
	res := &Result{Scenario: sc, Outcomes: [][]*outcome{{good}, {bad}}}

	check := func(inv Invariant, wantValue float64, wantPass bool) {
		t.Helper()
		res.Scenario.Invariants = []Invariant{inv}
		got, _ := res.Evaluate()
		if got[0].Value != wantValue || got[0].Pass != wantPass {
			t.Errorf("%s: got (%v, %v), want (%v, %v)",
				got[0].Name, got[0].Value, got[0].Pass, wantValue, wantPass)
		}
	}
	// attacker cost/served = 1000, legit = 10 → ratio 100.
	check(AtLeast(MetricWorkRatio, "", "", 50), 100, true)
	check(AtLeast(MetricWorkRatio, "", "", 200), 100, false)
	check(AtMost(MetricServedFrac, "bad", "", 0.4), 0.5, false)
	check(AtLeast(MetricServedFrac, ClassLegit, "", 0.99), 1, true)
	check(AtMost(MetricGoodput, ClassAttackers, "", 10), 5, true)
	check(AtLeast(MetricRequests, "", "", 200), 200, true)
}

// TestClock verifies the simulated clock's contract.
func TestClock(t *testing.T) {
	start := Epoch()
	c := NewClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("after Advance: %v", got)
	}
	c.Set(start) // backward: ignored
	if got := c.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Set moved the clock backward to %v", got)
	}
	c.Advance(-time.Second) // negative: ignored
	if got := c.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("negative Advance moved the clock to %v", got)
	}
}

// TestRedemptionRunDeterministic reruns a scenario exercising the whole
// scoring-verdict stack — confidence-shaped policy, redemption wrapper,
// evidence write-back from modeled completions, plus a forging population
// driving real Verify rejections — and demands byte-identical reports.
func TestRedemptionRunDeterministic(t *testing.T) {
	scenario := func() Scenario {
		return Scenario{
			Name: "redemption-determinism",
			Seed: 123,
			Phases: []Phase{
				{Name: "cold", Duration: 4 * time.Second},
				{Name: "settled", Duration: 8 * time.Second},
			},
			Populations: []Population{
				{Name: "users", Legit: true, Clients: 16, Rate: 0.5,
					Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedBenign},
				{Name: "misscored", Legit: true, Clients: 16, Rate: 0.5,
					Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedMalicious},
			},
			Network: testNetwork(),
			Spec:    hybridSpec("shape(inner=policy2)", "redeem(half-life=30s)"),
		}
	}
	var first []byte
	for i := 0; i < 3; i++ {
		res, err := Run(scenario())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		rep := res.Report()
		buf, err := rep.Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if i == 0 {
			first = buf
			continue
		}
		if string(buf) != string(first) {
			t.Fatalf("run %d produced a different report", i)
		}
	}
}

// TestBogusBehavior pins the forged-solution attacker: no solve work, no
// service, every submission rejected through the real Verify path.
func TestBogusBehavior(t *testing.T) {
	sc := Scenario{
		Name:   "bogus",
		Seed:   5,
		Phases: []Phase{{Name: "flood", Duration: 5 * time.Second}},
		Populations: []Population{
			{Name: "users", Legit: true, Clients: 8, Rate: 0.5,
				Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedBenign},
			{Name: "forgers", Clients: 16, Rate: 2,
				Behavior: BehaviorBogus, Feed: FeedMalicious},
		},
		Network:   testNetwork(),
		Spec:      dabrSpec("policy1", "max-difficulty 8"),
		RealSolve: true,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	forgers, _ := res.scope("forgers", "")
	if forgers.served != 0 {
		t.Errorf("forgers served %d, want 0", forgers.served)
	}
	if forgers.solveAttempts != 0 {
		t.Errorf("forgers spent %d hashes, want 0", forgers.solveAttempts)
	}
	if forgers.rejected == 0 {
		t.Error("no forgeries were rejected; Verify path not exercised")
	}
	if got := uint64(res.FrameworkStats["rejected"]); got != forgers.rejected {
		t.Errorf("framework rejected %d, engine counted %d", got, forgers.rejected)
	}
	users, _ := res.scope("users", "")
	if users.served != users.requests {
		t.Errorf("users served %d of %d", users.served, users.requests)
	}
}

// TestBatchModeByteIdentical is the batch-path equivalence gate: every
// suite scenario — adaptive loops, redemption, forgers, rotation — must
// produce a byte-identical report whether arrivals flow through per-event
// Observe/Decide or the batch entry points (ObserveBatch/DecideBatch).
// A divergence means batching changed semantics, not just cost.
func TestBatchModeByteIdentical(t *testing.T) {
	marshal := func(t *testing.T, sc Scenario) []byte {
		t.Helper()
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("Run(batch=%v): %v", sc.Batch, err)
		}
		buf, err := res.Report().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	for _, base := range DefaultSuite(4, 0.15) {
		t.Run(base.Name, func(t *testing.T) {
			single := base
			single.Batch = false
			batched := base
			batched.Batch = true
			got, want := marshal(t, batched), marshal(t, single)
			if string(got) != string(want) {
				t.Errorf("batch-mode report diverges from single-op report")
			}
		})
	}
}

// TestBatchModeGroupsSameIP pins the run-breaking rule: repeated IPs in
// one tick must not share a batch, or an early decide would see a later
// observation. One client at a high per-tick rate forces same-tick
// same-IP arrivals; the outputs must still match the single-op path.
func TestBatchModeGroupsSameIP(t *testing.T) {
	scenario := func(batch bool) Scenario {
		return Scenario{
			Name:   "same-ip-runs",
			Seed:   11,
			Batch:  batch,
			Phases: []Phase{{Name: "burst", Duration: 3 * time.Second}},
			Populations: []Population{
				{Name: "hot", Clients: 2, Rate: 60,
					Behavior: BehaviorSolve, HashRate: 27000, Feed: FeedMalicious,
					FailRatio: 0.4, Paths: []string{"/a", "/b"}},
			},
			Network: testNetwork(),
			Spec:    hybridSpec("policy2", "window 4s"),
		}
	}
	run := func(batch bool) []byte {
		res, err := Run(scenario(batch))
		if err != nil {
			t.Fatalf("Run(batch=%v): %v", batch, err)
		}
		buf, err := res.Report().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	if got, want := run(true), run(false); string(got) != string(want) {
		t.Error("same-IP runs diverge between batch and single-op paths")
	}
}

// TestDefenseEventLog runs the adaptive attack cycle and checks the captured
// sequence in detail: exactly escalate then de-escalate, level-chained,
// each carrying the rate signal reading that tripped it, separated by at
// least the rule's hold, and mirrored into the report. A second run must
// produce a byte-identical report — events ride the simulated clock, not
// the wall clock.
func TestDefenseEventLog(t *testing.T) {
	pick := func() Scenario {
		for _, sc := range DefaultSuite(7, 0.15) {
			if sc.Name == "adaptive-attack-cycle" {
				return sc
			}
		}
		t.Fatal("adaptive-attack-cycle missing from the default suite")
		return Scenario{}
	}
	res, err := Run(pick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 {
		t.Fatalf("events = %+v, want exactly [escalate, de-escalate]", res.Events)
	}
	up, down := res.Events[0], res.Events[1]
	if up.Kind != obs.EventAdaptEscalate || up.From != 0 || up.To != 1 {
		t.Fatalf("first event = %+v, want escalate 0→1", up)
	}
	if up.Signal != "rate" || up.Value <= 60 {
		t.Fatalf("escalation carries signal %q=%v, want rate>60", up.Signal, up.Value)
	}
	if up.Rule == "" {
		t.Fatalf("escalation carries no rule: %+v", up)
	}
	if down.Kind != obs.EventAdaptDeescalate || down.From != 1 || down.To != 0 {
		t.Fatalf("second event = %+v, want de-escalate 1→0", down)
	}
	if down.Signal != "rate" || down.Value > 60 {
		t.Fatalf("de-escalation carries signal %q=%v, want rate≤60", down.Signal, down.Value)
	}
	if hold := down.At.Sub(up.At); hold < 10*time.Second {
		t.Fatalf("de-escalation %v after escalation, want ≥ the 10s hold", hold)
	}
	if !eventSequenceOK(res.Events) {
		t.Fatal("event sequence flagged inconsistent")
	}

	rep := res.Report()
	if len(rep.Events) != 2 || !rep.Pass {
		t.Fatalf("report events=%d pass=%v, want 2 mirrored events and a passing run", len(rep.Events), rep.Pass)
	}
	first, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(pick())
	if err != nil {
		t.Fatal(err)
	}
	again, err := res2.Report().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("event-log runs diverge between reruns")
	}
}
