package sim

import (
	"time"
)

// Simulation-wide calibration, matching the Fig. 2 test in internal/policy:
// a script-grade solver and the paper's ~31 ms four-crossing round trip.
const (
	suiteHashRate = 27000 // hashes/s
	suiteOneWay   = 7750 * time.Microsecond
	suiteService  = 300 * time.Microsecond
)

// suiteNetwork is the network every suite scenario crosses.
func suiteNetwork() Network {
	return Network{OneWay: suiteOneWay, IssueTime: suiteService, VerifyTime: suiteService}
}

// scalePop shrinks a population for -quick runs, keeping per-client rates
// (and therefore all per-IP dynamics, difficulties, and latencies)
// untouched: only population-level counts shrink.
func scalePop(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	s := int(float64(n) * scale)
	if s < 8 {
		s = 8
	}
	return s
}

// DefaultSuite is the canonical adversarial scenario set the CI gate runs:
// twenty-two deterministic scenarios, each defended by a pipeline spec
// powserver could deploy, spanning the traffic mixes the ROADMAP
// asks for, including the mid-campaign policy hot-swap, the closed-loop
// adaptive-defense suite (auto-escalation on attack onset, FP-proxy-gated
// escalation, controller flap guard, a verify_fail_rate rung against
// real-crypto forgeries, a three-rung production ladder), the
// scoring-verdict stack (the canonical policy2 scenarios run
// shape(inner=policy2) + behavioral redemption; fp-redemption pins a
// misscored benign population earning its way out of the FP tail), and the
// puzzle-backend pair (a GPU-discounted botnet collapses the hashcash
// asymmetry and the memory-hard balloon backend restores it, plus a
// real-crypto downgrade-replay scenario pinning that v2 solutions never
// redeem as v1), and the K-node cluster quartet.
// scale < 1 (the CLI's -quick) shrinks population sizes without changing
// per-client dynamics, so invariant bounds hold at every scale.
func DefaultSuite(seed uint64, scale float64) []Scenario {
	net := suiteNetwork()
	// users is the benign baseline most scenarios run beside their attack.
	// It holds no slice or map, so every literal gets its own copy.
	users := Population{
		Name: "users", Legit: true, Clients: scalePop(60, scale), Rate: 0.3,
		Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
	}
	// striping fills in the traffic the three cluster-striping variants
	// share: a calm → flood → recovery campaign whose bots spread their
	// requests across the fleet. The variants differ only in topology, spec
	// and invariants. Each call builds fresh slices and maps, so no two
	// scenarios share mutable state.
	striping := func(sc Scenario) Scenario {
		sc.Phases = []Phase{
			{Name: "calm", Duration: 15 * time.Second, RateScale: map[string]float64{"stripe-bots": 0}},
			{Name: "flood", Duration: 30 * time.Second},
			{Name: "recovery", Duration: 25 * time.Second, RateScale: map[string]float64{"stripe-bots": 0}},
		}
		sc.Populations = []Population{
			{
				Name: "users", Legit: true, Clients: scalePop(8, scale), Rate: 0.3,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
			},
			{
				// Each bot request lands on an independently-drawn node:
				// ~32 r/s per node at full scale, under the 45 r/s
				// threshold every per-node controller watches — only the
				// ~128 r/s fleet total crosses it.
				Name: "stripe-bots", Clients: scalePop(8, scale), Rate: 8,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
				Stripe: true, Paths: []string{"/login"},
			},
		}
		return sc
	}
	// stripeSpec is the striping variants' pipeline without a cluster
	// section: four nodes that never hear of each other, the
	// per-node-feedback fleet an operator can actually deploy.
	const stripeSpec = `
		scorer hybrid(inner=dabr, saturation=3)
		source combined
		policy policy1
		adapt capacity 400
		adapt escalate(when=rate>45, policy=policy2, hold=10s, after=2)`
	// gpuBotnet fills in the traffic the two puzzle-backend variants share:
	// phones beside a botnet with a hardware discount per backend. A GPU
	// mines SHA-256 three orders of magnitude faster than a phone core,
	// but gains almost nothing on a memory-bandwidth-bound function — the
	// asymmetry the pair measures from both sides. Each call builds fresh
	// slices and maps.
	gpuBotnet := func(sc Scenario) Scenario {
		sc.Phases = []Phase{
			{Name: "warmup", Duration: 10 * time.Second, RateScale: map[string]float64{"gpu-bots": 0}},
			{Name: "attack", Duration: 30 * time.Second},
		}
		sc.Populations = []Population{
			{
				Name: "phones", Legit: true, Clients: scalePop(100, scale), Rate: 0.3,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
			},
			{
				Name: "gpu-bots", Clients: scalePop(150, scale), Rate: 1,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
				Speedup: map[string]float64{"hashcash": 2000, "balloon": 2},
				Paths:   []string{"/signup"},
			},
		}
		return sc
	}
	// gpuSpec is the pair's pipeline on the default hashcash backend; the
	// balloon variant adds only its puzzle line.
	const gpuSpec = `
		scorer hybrid(inner=dabr, saturation=3)
		source combined
		policy shape(inner=policy2)
		max-difficulty 12
		redeem`
	scs := []Scenario{
		{
			Name:        "steady-state",
			Description: "benign-only baseline: known-good users pay near-zero",
			Phases:      []Phase{{Name: "steady", Duration: 60 * time.Second}},
			Populations: []Population{{
				Name: "users", Legit: true, Clients: scalePop(100, scale), Rate: 0.3,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				Paths: []string{"/", "/search", "/account"},
			}},
			Spec: `
				scorer hybrid(inner=dabr, saturation=4)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP50, "users", "", 60),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricLatencyP99, "users", "", 4000),
				AtMost(MetricMeanDifficulty, "users", "", 9.5),
				AtMost(MetricMeanScore, "users", "", 4),
				AtMost(MetricCostP50, "users", "", 400),
				AtMost(MetricDecideErrors, "users", "", 0),
			},
		},
		{
			Name:        "flash-crowd",
			Description: "legitimate demand surge: 8x arrival spike must not be mistaken for an attack",
			Phases: []Phase{
				{Name: "calm", Duration: 20 * time.Second},
				{Name: "surge", Duration: 20 * time.Second, RateScale: map[string]float64{"users": 8}},
				{Name: "cooldown", Duration: 20 * time.Second},
			},
			Populations: []Population{{
				Name: "users", Legit: true, Clients: scalePop(100, scale), Rate: 0.25,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				Paths: []string{"/", "/sale"},
			}},
			Spec: `
				scorer hybrid(inner=dabr, saturation=6)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "surge", 800),
				AtMost(MetricLatencyP99, "users", "surge", 4000),
				AtMost(MetricMeanDifficulty, "users", "surge", 10),
			},
		},
		{
			Name:        "pulsing-botnet",
			Description: "on-off flood: known-bad bots pulse to dodge rate defenses but pay on every pulse",
			Phases: []Phase{
				{Name: "calm", Duration: 15 * time.Second, RateScale: map[string]float64{"pulse-bots": 0}},
				{Name: "pulse1", Duration: 15 * time.Second},
				{Name: "quiet", Duration: 15 * time.Second, RateScale: map[string]float64{"pulse-bots": 0}},
				{Name: "pulse2", Duration: 15 * time.Second},
			},
			Populations: []Population{
				users,
				{
					Name: "pulse-bots", Clients: scalePop(300, scale), Rate: 2,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricWorkRatioP50, "", "", 12),
				AtLeast(MetricWorkRatio, "", "", 8),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtLeast(MetricMeanDifficulty, "pulse-bots", "", 11),
			},
		},
		{
			Name:        "rotating-botnet",
			Description: "feed-unknown bots rotate IPs to shed behavioral history; the rate window re-catches each block",
			Phases:      []Phase{{Name: "attack", Duration: 60 * time.Second}},
			Populations: []Population{
				users,
				{
					Name: "rotating-bots", Clients: scalePop(150, scale), Rate: 3,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedUnknown,
					IPPool: scalePop(150, scale) * 20, RotateEvery: 10 * time.Second,
					Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=2)
				source combined
				policy shape(inner=policy2)
				window 10s
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricWorkRatioP50, "", "", 8),
				AtLeast(MetricWorkRatio, "", "", 5),
				AtLeast(MetricMeanDifficulty, "rotating-bots", "", 10),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "", 800),
			},
		},
		{
			Name:        "slow-and-low",
			Description: "feed-flagged probers hide under the rate radar; static intelligence still prices them out",
			Phases:      []Phase{{Name: "probe", Duration: 90 * time.Second}},
			Populations: []Population{
				{
					Name: "users", Legit: true, Clients: scalePop(80, scale), Rate: 0.3,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				},
				{
					Name: "probers", Clients: scalePop(400, scale), Rate: 0.05,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths:     []string{"/admin", "/wp-login.php", "/.env", "/backup.sql", "/api/keys"},
					FailRatio: 0.4,
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=4)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricWorkRatioP50, "", "", 20),
				AtLeast(MetricWorkRatio, "", "", 4),
				AtLeast(MetricMeanDifficulty, "probers", "", 11),
				AtLeast(MetricCostP50, "probers", "", 2000),
				AtMost(MetricLatencyP90, "users", "", 1000),
				AtLeast(MetricServedFrac, "users", "", 0.999),
			},
		},
		{
			Name:        "poison-warmup",
			Description: "clean-feed bots warm up politely, then strike: the rate window reprices them mid-strike",
			Phases: []Phase{
				{Name: "warmup", Duration: 30 * time.Second},
				{Name: "strike", Duration: 30 * time.Second, RateScale: map[string]float64{"sleeper-bots": 40}},
			},
			Populations: []Population{
				users,
				{
					Name: "sleeper-bots", Clients: scalePop(200, scale), Rate: 0.2,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
					Paths: []string{"/checkout"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy shape(inner=policy2)
				window 15s
				redeem`,
			Invariants: []Invariant{
				AtLeast(MetricMeanDifficulty, "sleeper-bots", "strike", 12),
				AtLeast(MetricWorkRatioP50, "", "strike", 30),
				AtLeast(MetricWorkRatio, "", "strike", 10),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "", 800),
			},
		},
		{
			Name:        "challenge-dodgers",
			Description: "issuance flood: bots that never solve get zero service at high asking price",
			Phases:      []Phase{{Name: "flood", Duration: 45 * time.Second}},
			Populations: []Population{
				users,
				{
					Name: "dodgers", Clients: scalePop(500, scale), Rate: 4,
					Behavior: BehaviorIgnore, Feed: FeedMalicious,
					Paths: []string{"/"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				AtMost(MetricServed, "dodgers", "", 0),
				AtMost(MetricSolveAttempts, "dodgers", "", 0),
				AtLeast(MetricMeanDifficulty, "dodgers", "", 12),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "", 800),
			},
		},
		{
			Name:        "policy-flip",
			Description: "mid-campaign control-plane flip: policy1 → policy2 reprices a pulsing botnet without a restart",
			Phases: []Phase{
				{Name: "calm", Duration: 15 * time.Second, RateScale: map[string]float64{"flip-bots": 0}},
				{Name: "pulse-policy1", Duration: 15 * time.Second},
				{Name: "pulse-policy2", Duration: 15 * time.Second, SwapPolicy: "policy2"},
			},
			Populations: []Population{
				users,
				{
					Name: "flip-bots", Clients: scalePop(300, scale), Rate: 2,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy policy1`,
			Invariants: []Invariant{
				// The flip is the observable: under policy1 the bots' asking
				// price is capped (score+1 ≤ 11); the phase-boundary swap to
				// policy2 must visibly reprice them upward mid-pulse…
				AtMost(MetricMeanDifficulty, "flip-bots", "pulse-policy1", 11),
				AtLeast(MetricMeanDifficulty, "flip-bots", "pulse-policy2", 12),
				AtLeast(MetricWorkRatioP50, "", "pulse-policy2", 12),
				// …while legitimate traffic keeps being served with bounded
				// typical latency across the whole campaign, swap included.
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP50, "users", "", 60),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "adaptive-attack-cycle",
			Description: "closed loop: flood onset auto-escalates policy1→policy2 within ticks, attack end auto-de-escalates after the hold",
			Phases: []Phase{
				{Name: "calm", Duration: 15 * time.Second, RateScale: map[string]float64{"cycle-bots": 0}},
				{Name: "flood", Duration: 30 * time.Second},
				{Name: "recovery", Duration: 25 * time.Second, RateScale: map[string]float64{"cycle-bots": 0}},
			},
			Populations: []Population{
				users,
				{
					Name: "cycle-bots", Clients: scalePop(300, scale), Rate: 2,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy policy1
				adapt capacity 400
				adapt escalate(when=rate>60, policy=policy2, hold=10s, after=2)`,
			Invariants: []Invariant{
				// The loop's latency, pinned from both sides: escalation
				// only after the flood starts (15 s) and within ~1.5 s of
				// ticks; de-escalation only after the 10 s hold past the
				// flood's end (45 s) plus the rate estimator's decay.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 15000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 16500),
				AtLeast(MetricAdaptFirstDeescalationMS, "", "", 55000),
				AtMost(MetricAdaptFirstDeescalationMS, "", "", 59000),
				// Exactly one up and one down: no flapping, back at base.
				AtLeast(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptMaxLevel, "", "", 1),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				// The escalation visibly reprices the attackers mid-flood
				// (policy1 caps them at 11)…
				AtLeast(MetricMeanDifficulty, "cycle-bots", "flood", 12),
				AtLeast(MetricWorkRatioP50, "", "flood", 12),
				// …while legitimate traffic keeps flowing.
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP50, "users", "", 60),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
				// The defense event log tells the same cycle: exactly two
				// events — one escalation, one de-escalation — and a
				// structurally consistent log (monotone sequence numbers and
				// timestamps, level-chained adapt transitions), so nothing
				// spurious lands in between. Declaring them captures the
				// events into the report.
				AtLeast(MetricEventCount, "", "", 2),
				AtMost(MetricEventCount, "", "", 2),
				AtLeast(MetricEventSequenceOK, "", "", 1),
			},
		},
		{
			Name:        "adaptive-fp-softening",
			Description: "FP-proxy gating: a benign flash crowd (hard puzzles get solved) never escalates; a bot flood (hard puzzles abandoned) does",
			Phases: []Phase{
				{Name: "calm", Duration: 20 * time.Second, RateScale: map[string]float64{"fp-bots": 0}},
				{Name: "benign-surge", Duration: 20 * time.Second, RateScale: map[string]float64{"users": 8, "fp-bots": 0}},
				{Name: "lull", Duration: 20 * time.Second, RateScale: map[string]float64{"fp-bots": 0}},
				{Name: "bot-flood", Duration: 20 * time.Second},
				{Name: "recovery", Duration: 20 * time.Second, RateScale: map[string]float64{"fp-bots": 0}},
			},
			Populations: []Population{
				{
					Name: "users", Legit: true, Clients: scalePop(80, scale), Rate: 0.3,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				},
				{
					Name: "fp-bots", Clients: scalePop(400, scale), Rate: 2,
					Behavior: BehaviorGiveUpAbove, GiveUpAt: 10, HashRate: suiteHashRate,
					Feed: FeedMalicious, Paths: []string{"/login"},
				},
			},
			// Base policy2 carries the scorer's ~15% benign FP tail to
			// difficulty 13–15 — exactly the clients the hard_solve_frac
			// proxy watches: they dutifully solve, bots walk away.
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy policy2
				adapt capacity 800
				adapt window 20
				adapt escalate(when=rate>40, policy=fixed(difficulty=16), hold=8s, after=30, unless=hard_solve_frac>0.35)`,
			Invariants: []Invariant{
				// The 8x benign surge (20–40 s) trips the volume trigger
				// but the FP gate holds it down; only the bot flood (from
				// 60 s) escalates — and within the 30-tick debounce.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 62000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 66000),
				AtLeast(MetricAdaptFirstDeescalationMS, "", "", 88000),
				AtMost(MetricAdaptFirstDeescalationMS, "", "", 93000),
				AtLeast(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptSwaps, "", "", 2),
				// The surge itself stays priced like any non-adaptive
				// policy2 deployment (an escalation to fixed(16) would
				// push the mean toward 16).
				AtMost(MetricMeanDifficulty, "users", "benign-surge", 11),
				AtMost(MetricLatencyP50, "users", "benign-surge", 60),
				AtMost(MetricLatencyP90, "users", "benign-surge", 800),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				// The flood is priced out: nearly every give-up bot walks
				// away unserved (a thin low-score tail still pays).
				AtMost(MetricServedFrac, "fp-bots", "", 0.1),
				AtLeast(MetricMeanDifficulty, "fp-bots", "bot-flood", 14),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "adaptive-flap-guard",
			Description: "pulsing botnet vs. hysteresis: on-off pulses shorter than the hold produce exactly one escalation, no policy flapping",
			Phases: []Phase{
				{Name: "calm", Duration: 10 * time.Second, RateScale: map[string]float64{"flap-bots": 0}},
				{Name: "pulse1", Duration: 5 * time.Second},
				{Name: "gap1", Duration: 5 * time.Second, RateScale: map[string]float64{"flap-bots": 0}},
				{Name: "pulse2", Duration: 5 * time.Second},
				{Name: "gap2", Duration: 5 * time.Second, RateScale: map[string]float64{"flap-bots": 0}},
				{Name: "pulse3", Duration: 5 * time.Second},
				{Name: "recovery", Duration: 20 * time.Second, RateScale: map[string]float64{"flap-bots": 0}},
			},
			Populations: []Population{
				users,
				{
					Name: "flap-bots", Clients: scalePop(300, scale), Rate: 2,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy policy1
				adapt capacity 400
				adapt escalate(when=rate>60, policy=policy2, hold=12s, after=2)`,
			Invariants: []Invariant{
				// One escalation at the first pulse; every later pulse
				// lands inside the 12 s hold, so the controller stays up
				// instead of flapping — exactly 2 swaps across 3 pulses.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 10000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 11500),
				AtLeast(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptMaxLevel, "", "", 1),
				// De-escalation only after the last pulse (35 s) + hold.
				AtLeast(MetricAdaptFirstDeescalationMS, "", "", 47000),
				AtMost(MetricAdaptFirstDeescalationMS, "", "", 50500),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				// Later pulses arrive pre-priced: the held escalation
				// means no repricing lag on pulse 2 and 3 (policy1 would
				// average ≈8 on this mix; policy2 ≈12).
				AtLeast(MetricMeanDifficulty, "flap-bots", "pulse2", 11.5),
				AtLeast(MetricMeanDifficulty, "flap-bots", "pulse3", 11.5),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP50, "users", "", 60),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "fp-redemption",
			Description: "misscored benign clients earn their way out of the FP tail: sustained verified solves redeem difficulty",
			Phases: []Phase{
				{Name: "cold", Duration: 10 * time.Second},
				{Name: "settled", Duration: 50 * time.Second},
			},
			Populations: []Population{
				users,
				{
					// The feed is wrong about these clients: real people whose
					// addresses carry malicious intelligence. They behave
					// impeccably — modest rate, no failures, every challenge
					// solved — which is exactly the evidence redemption pays.
					Name: "misscored", Legit: true, Clients: scalePop(80, scale), Rate: 0.3,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/", "/account"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=4)
				source combined
				policy shape(inner=policy2)
				redeem`,
			Invariants: []Invariant{
				// Cold: the tail price. Settled: sustained verified solves
				// have attenuated the static judgment — the mean difficulty
				// and the per-request cost both fall, while a non-redeeming
				// defense would hold both flat for the whole run.
				AtLeast(MetricMeanDifficulty, "misscored", "cold", 9.5),
				AtMost(MetricMeanDifficulty, "misscored", "settled", 9.2),
				AtLeast(MetricCostPerServed, "misscored", "cold", 4000),
				AtMost(MetricCostPerServed, "misscored", "settled", 2500),
				AtLeast(MetricServedFrac, "misscored", "", 0.999),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP50, "users", "", 60),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "forged-solutions",
			Description: "real-crypto forgery flood: bogus solutions spike verify_fail_rate and the adapt ladder reprices the route",
			Phases: []Phase{
				{Name: "calm", Duration: 15 * time.Second, RateScale: map[string]float64{"forgers": 0}},
				{Name: "flood", Duration: 25 * time.Second},
				{Name: "recovery", Duration: 20 * time.Second, RateScale: map[string]float64{"forgers": 0}},
			},
			Populations: []Population{
				users,
				{
					// Forgers spend no compute at all: they echo challenges
					// back with corrupted tags, betting on verifier load and
					// lucky rejections — the one attack volume signals miss
					// (their request rate is modest) but the verify_fail_rate
					// signal nails.
					Name: "forgers", Clients: scalePop(200, scale), Rate: 1,
					Behavior: BehaviorBogus, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			RealSolve: true,
			Spec: `
				scorer dabr
				source combined
				policy policy1
				max-difficulty 10
				adapt escalate(when=verify_fail_rate>0.3, policy=policy2, hold=8s, after=2)`,
			Invariants: []Invariant{
				// The rung fires within ticks of the flood's first rejected
				// forgeries and releases after the hold + window drain.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 15000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 17000),
				AtLeast(MetricAdaptFirstDeescalationMS, "", "", 48000),
				AtMost(MetricAdaptFirstDeescalationMS, "", "", 53000),
				AtLeast(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptSwaps, "", "", 2),
				AtMost(MetricAdaptMaxLevel, "", "", 1),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				// Forgers get zero service however many forgeries they send,
				// and the escalation reprices their challenges upward.
				AtMost(MetricServedFrac, "forgers", "", 0),
				AtLeast(MetricMeanDifficulty, "forgers", "flood", 8.5),
				// Real-crypto legit path stays healthy through the flood.
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricExpired, "users", "", 0),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "adaptive-ladder",
			Description: "production ladder: three escalation rungs reprice three attack waves, then unwind one level per step",
			Phases: []Phase{
				{Name: "calm", Duration: 10 * time.Second, RateScale: map[string]float64{"wave-bots": 0}},
				{Name: "wave1", Duration: 10 * time.Second},
				{Name: "wave2", Duration: 10 * time.Second, RateScale: map[string]float64{"wave-bots": 8}},
				{Name: "wave3", Duration: 10 * time.Second, RateScale: map[string]float64{"wave-bots": 64}},
				{Name: "recovery", Duration: 30 * time.Second, RateScale: map[string]float64{"wave-bots": 0}},
			},
			Populations: []Population{
				users,
				{
					// Rational flood: give up above the pre-escalation price
					// band, so each wave's goodput collapses as its rung lands.
					Name: "wave-bots", Clients: scalePop(320, scale), Rate: 0.5,
					Behavior: BehaviorGiveUpAbove, GiveUpAt: 12, HashRate: suiteHashRate,
					Feed: FeedMalicious, Paths: []string{"/login"},
				},
			},
			Spec: `
				scorer hybrid(inner=dabr, saturation=3)
				source combined
				policy policy1
				adapt escalate(when=rate>30, policy=policy2, hold=6s, after=2)
				adapt escalate(when=rate>200, policy=fixed(difficulty=15), hold=6s, after=2)
				adapt escalate(when=rate>1600, policy=fixed(difficulty=17), hold=6s, after=2)`,
			Invariants: []Invariant{
				// Each wave triggers exactly its rung: the ladder tops out at
				// level 3 and unwinds one level per controller step after the
				// holds, so exactly six swaps bracket the campaign.
				AtLeast(MetricAdaptMaxLevel, "", "", 3),
				AtMost(MetricAdaptMaxLevel, "", "", 3),
				AtLeast(MetricAdaptSwaps, "", "", 6),
				AtMost(MetricAdaptSwaps, "", "", 6),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 10000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 12500),
				AtLeast(MetricAdaptFirstDeescalationMS, "", "", 46000),
				AtMost(MetricAdaptFirstDeescalationMS, "", "", 50000),
				// The rungs visibly reprice each wave upward.
				AtLeast(MetricMeanDifficulty, "wave-bots", "wave2", 12),
				AtLeast(MetricMeanDifficulty, "wave-bots", "wave3", 14),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				// The emergency rungs are fixed-difficulty: users pay them
				// too during the waves (the price of a stance that cannot be
				// gamed by score), so the tight latency bound applies to the
				// calm phase and a looser one to the whole campaign.
				AtMost(MetricLatencyP50, "users", "calm", 60),
				AtMost(MetricLatencyP50, "users", "", 250),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		{
			Name:        "real-crypto-smoke",
			Description: "end-to-end cryptographic path: real nonce searches redeemed through Verify",
			Phases:      []Phase{{Name: "steady", Duration: 10 * time.Second}},
			Populations: []Population{{
				Name: "users", Legit: true, Clients: scalePop(20, scale), Rate: 0.5,
				Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
			}},
			RealSolve: true,
			Spec: `
				scorer dabr
				source combined
				policy policy1
				max-difficulty 10`,
			Invariants: []Invariant{
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricExpired, "users", "", 0),
				AtMost(MetricDecideErrors, "users", "", 0),
				AtMost(MetricLatencyP99, "users", "", 300),
			},
		},
		gpuBotnet(Scenario{
			Name:        "gpu-botnet-hashcash",
			Description: "GPU-discounted botnet vs hashcash: parallel SHA-256 hardware collapses the work asymmetry",
			Spec:        gpuSpec,
			Invariants: []Invariant{
				// The headline failure: with the hardware discount, the
				// botnet's effective median cost falls to or below the
				// phones' — pure hashcash cannot price out parallel silicon.
				AtMost(MetricWorkRatioP50, "", "attack", 1),
				AtLeast(MetricServedFrac, "gpu-bots", "", 0.999),
				AtLeast(MetricServedFrac, "phones", "", 0.999),
				AtMost(MetricLatencyP90, "phones", "attack", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		}),
		gpuBotnet(Scenario{
			Name:        "gpu-botnet-balloon",
			Description: "same botnet vs the memory-hard backend: balloon hashing restores the priced-out asymmetry",
			Spec:        gpuSpec + "\npuzzle balloon(space=8, time=1)",
			Invariants: []Invariant{
				// Identical traffic, identical policy — only the backend
				// changed, and the asymmetry is back: the botnet's 2x memory
				// discount cannot bridge the backend's per-attempt cost.
				AtLeast(MetricWorkRatioP50, "", "attack", 4),
				AtLeast(MetricCostP50, "gpu-bots", "attack", 1000),
				// The benign quantiles hold: the median phone barely
				// notices the backend switch, the tail pays the memory-hard
				// price in single-digit seconds (not minutes), and every
				// phone is served.
				AtLeast(MetricServedFrac, "phones", "", 0.999),
				AtMost(MetricLatencyP50, "phones", "attack", 250),
				AtMost(MetricLatencyP90, "phones", "attack", 2000),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		}),
		{
			Name:        "cross-backend-replay",
			Description: "real-crypto downgrade replay: balloon challenges relabelled as hashcash never redeem",
			Phases:      []Phase{{Name: "attack", Duration: 20 * time.Second}},
			Populations: []Population{
				{
					Name: "users", Legit: true, Clients: scalePop(20, scale), Rate: 0.5,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				},
				{
					Name: "downgraders", Clients: scalePop(60, scale), Rate: 1,
					Behavior: BehaviorDowngrade, Feed: FeedMalicious,
					Paths: []string{"/signup"},
				},
			},
			RealSolve: true,
			Spec: `
				scorer dabr
				source combined
				policy policy1
				max-difficulty 8
				puzzle balloon(space=8, time=1)`,
			Invariants: []Invariant{
				// Every downgraded solution is rejected by the verifier's
				// version/backend gate; none is ever served — the cheap
				// hashcash work buys nothing on the memory-hard route.
				AtMost(MetricServed, "downgraders", "", 0),
				AtLeast(MetricRejected, "downgraders", "", 1),
				// Honest clients solving the real memory-hard puzzle sail
				// through the same verifier.
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricExpired, "users", "", 0),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		striping(Scenario{
			Name:        "cluster-striping-fleet",
			Description: "K=4 fleet, striping botnet: fleet-summed feedback sees the cluster-wide rate and every node escalates; per-node rates alone stay under threshold",
			Cluster:     &ClusterSim{Nodes: 4},
			Spec:        stripeSpec + "\ncluster",
			Invariants: []Invariant{
				// Fleet detection latency: escalation only after the flood
				// starts (15 s) and within ~2 s — one exchange round of
				// staleness on top of the single-node loop latency.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 15000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 17500),
				// Every node escalates once and de-escalates once: 4 up, 4
				// down, ending back at base.
				AtLeast(MetricAdaptSwaps, "", "", 8),
				AtMost(MetricAdaptSwaps, "", "", 8),
				AtLeast(MetricAdaptMaxLevel, "", "", 1),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				// The escalation reprices the striped bots fleet-wide past
				// policy1's cap of 11 (the score spread keeps the mean just
				// above it; the local variant sits at ~7.6).
				AtLeast(MetricMeanDifficulty, "stripe-bots", "flood", 11.25),
				// …while legitimate traffic keeps flowing on every node.
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricLatencyP90, "users", "", 800),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		}),
		striping(Scenario{
			Name:        "cluster-striping-local",
			Description: "failure exhibit paired with cluster-striping-fleet: same fleet, same botnet, feedback left per-node — no controller ever fires and the bots keep paying base prices",
			Cluster:     &ClusterSim{Nodes: 4},
			Spec:        stripeSpec,
			Invariants: []Invariant{
				// The striping works: no per-node rate ever crosses the
				// threshold, so no controller moves — this is exactly the
				// blind spot the fleet-feedback variant closes.
				AtMost(MetricAdaptSwaps, "", "", 0),
				AtMost(MetricAdaptMaxLevel, "", "", 0),
				// And the bots stay at policy1's cap the whole flood.
				AtMost(MetricMeanDifficulty, "stripe-bots", "flood", 11),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		}),
		{
			Name:        "cluster-replay",
			Description: "real-crypto cross-node replay: tokens solved and redeemed on one fleet node are resubmitted to the other; the gossiped Bloom filter rejects every one",
			Cluster:     &ClusterSim{Nodes: 2},
			Phases:      []Phase{{Name: "attack", Duration: 20 * time.Second}},
			Populations: []Population{
				{
					Name: "users", Legit: true, Clients: scalePop(8, scale), Rate: 0.5,
					Behavior: BehaviorSolve, HashRate: suiteHashRate, Feed: FeedBenign,
				},
				{
					Name: "replayers", Clients: scalePop(8, scale), Rate: 0.5,
					Behavior: BehaviorReplayCross, HashRate: suiteHashRate, Feed: FeedMalicious,
					Paths: []string{"/login"},
				},
			},
			RealSolve: true,
			Spec: `
				scorer dabr
				source combined
				policy policy1
				max-difficulty 8
				cluster`,
			Invariants: []Invariant{
				// The replayers' honest first redemptions all land…
				AtLeast(MetricServedFrac, "replayers", "", 0.999),
				// …and served_frac ≤ 1 pins that no replay ever redeemed:
				// a second service for the same request would push served
				// past requests.
				AtMost(MetricServedFrac, "replayers", "", 1),
				// Every replay is rejected by the fleet filter.
				AtLeast(MetricRejected, "replayers", "", 50),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		},
		striping(Scenario{
			Name:        "cluster-partial",
			Description: "K=4 ring (degree 1, partial views): fleet feedback still detects the striping botnet, one relay hop of staleness slower than the full mesh",
			Cluster:     &ClusterSim{Nodes: 4, Degree: 1},
			Spec:        stripeSpec + "\ncluster",
			Invariants: []Invariant{
				// Same detection, looser latency ceiling: counters relay
				// around the ring one hop per round (up to 3 rounds to the
				// farthest peer), so the mesh's bound gains that slack —
				// the detection-latency-vs-topology trade, pinned.
				AtLeast(MetricAdaptFirstEscalationMS, "", "", 15000),
				AtMost(MetricAdaptFirstEscalationMS, "", "", 18500),
				AtLeast(MetricAdaptMaxLevel, "", "", 1),
				AtMost(MetricAdaptFinalLevel, "", "", 0),
				AtLeast(MetricMeanDifficulty, "stripe-bots", "flood", 11.25),
				AtLeast(MetricServedFrac, "users", "", 0.999),
				AtMost(MetricDecideErrors, "", "", 0),
			},
		}),
	}
	for i := range scs {
		scs[i].Seed = seed
		scs[i].Network = net
	}
	return scs
}

// SuiteNames lists the default suite's scenario names, for -scenario
// filter validation and docs.
func SuiteNames() []string {
	names := make([]string, 0, 8)
	for _, sc := range DefaultSuite(1, 1) {
		names = append(names, sc.Name)
	}
	return names
}
