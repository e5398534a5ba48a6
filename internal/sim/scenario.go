package sim

import (
	"fmt"
	"time"

	"aipow/internal/control"
	"aipow/internal/policy"
)

// Behavior describes how a population's clients react to a challenge.
type Behavior int

// Challenge-response behaviors.
const (
	// BehaviorSolve always solves, whatever the difficulty.
	BehaviorSolve Behavior = iota + 1

	// BehaviorIgnore never solves: the population floods initial requests
	// and walks away from every challenge.
	BehaviorIgnore

	// BehaviorGiveUpAbove solves puzzles at or below the population's
	// GiveUpAt difficulty and abandons harder ones — the rational attacker
	// bounding per-request spend.
	BehaviorGiveUpAbove

	// BehaviorBogus skips solving and submits the challenge back with a
	// corrupted authentication tag: a forged-solution attacker spending
	// nothing while hammering the verifier. Every submission fails
	// verification deterministically, driving the verify_fail_rate signal
	// and the per-IP fail-streak evidence.
	BehaviorBogus

	// BehaviorDowngrade relabels the issued challenge as hashcash, really
	// solves that cheap form, and submits the result — the downgrade
	// attacker trying to pay single-SHA-256 prices for a memory-hard
	// route. The verifier's backend gate rejects every submission (the
	// HMAC covers the backend byte, so the relabelled token never
	// authenticates either), so these populations pin the
	// downgrade-proofing end to end.
	// Requires Scenario.RealSolve.
	BehaviorDowngrade

	// BehaviorReplayCross solves honestly, redeems on its home node, then
	// resubmits the same solution to a different fleet node — the
	// cross-node replay attacker exploiting per-node replay windows. With
	// the cluster's Bloom exchange the second redemption must fail on
	// every node; without it each node would happily redeem once.
	// Requires Scenario.RealSolve and a Cluster.
	BehaviorReplayCross
)

// String renders the behavior for reports.
func (b Behavior) String() string {
	switch b {
	case BehaviorSolve:
		return "solve"
	case BehaviorIgnore:
		return "ignore"
	case BehaviorGiveUpAbove:
		return "giveup"
	case BehaviorBogus:
		return "bogus"
	case BehaviorDowngrade:
		return "downgrade"
	case BehaviorReplayCross:
		return "replay-cross"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// Feed describes what the static IP-intelligence feed knows about a
// population's addresses when the scenario's defense is assembled.
type Feed int

// Feed profiles.
const (
	// FeedBenign registers the population's IPs with benign feed
	// attributes — known-good addresses.
	FeedBenign Feed = iota + 1

	// FeedMalicious registers them with malicious family attributes —
	// addresses the intelligence feed has already flagged.
	FeedMalicious

	// FeedUnknown leaves them out of the feed entirely: the store serves
	// its fallback profile and only live behavior can raise suspicion.
	// This is what a freshly-rotated botnet address looks like.
	FeedUnknown
)

// String renders the feed profile for reports.
func (f Feed) String() string {
	switch f {
	case FeedBenign:
		return "benign"
	case FeedMalicious:
		return "malicious"
	case FeedUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("feed(%d)", int(f))
	}
}

// Population declares one homogeneous client group of a scenario.
type Population struct {
	// Name labels the population in reports and invariant references.
	Name string

	// Legit marks legitimate traffic; the complement is attack traffic.
	// Class-level invariants (work_ratio) aggregate over this flag.
	Legit bool

	// Clients is the number of concurrently active clients.
	Clients int

	// Rate is each client's open-loop Poisson arrival rate in requests
	// per second, before phase scaling.
	Rate float64

	// Behavior is the challenge response.
	Behavior Behavior

	// GiveUpAt is the maximum difficulty BehaviorGiveUpAbove will solve.
	GiveUpAt int

	// HashRate is each client's solver throughput (hashes/s). Required
	// for solving behaviors.
	HashRate float64

	// Speedup scales the population's effective cost per solve unit by
	// puzzle backend name ("hashcash", "balloon"): a GPU botnet might
	// declare {"hashcash": 2000, "balloon": 2} — three orders of magnitude
	// of parallel SHA-256 throughput, but barely any gain on a
	// memory-bandwidth-bound function. The engine divides the backend's
	// modeled cost by the matching factor; absent backends (and a nil map,
	// the phone-class default) cost full price. Values must be positive.
	Speedup map[string]float64

	// Feed is what the static intelligence feed knows about the
	// population's addresses.
	Feed Feed

	// IPPool is the number of distinct addresses the population draws
	// from; zero defaults to Clients (one stable address each).
	IPPool int

	// RotateEvery makes the population shift to a fresh block of the pool
	// this often — the rotating-botnet evasion. Zero disables rotation.
	RotateEvery time.Duration

	// Paths is the set of request paths clients draw from uniformly
	// (entropy signal for the behavior tracker). Empty defaults to "/".
	Paths []string

	// FailRatio is the fraction of requests observed as failed (4xx-like
	// behavioral signal), in [0, 1]. Probing populations set it high.
	FailRatio float64

	// Stripe sprays each request onto an independently-drawn fleet node
	// instead of the default stable client→node affinity — the striping
	// botnet diluting its per-node footprint 1/K. Requires a Cluster
	// section.
	Stripe bool
}

// validate rejects inconsistent populations.
func (p Population) validate() error {
	if p.Name == "" {
		return fmt.Errorf("sim: population without a name")
	}
	if p.Clients <= 0 {
		return fmt.Errorf("sim: population %q needs a positive client count, got %d", p.Name, p.Clients)
	}
	if p.Rate <= 0 {
		return fmt.Errorf("sim: population %q needs a positive request rate, got %v", p.Name, p.Rate)
	}
	switch p.Behavior {
	case BehaviorSolve, BehaviorGiveUpAbove, BehaviorReplayCross:
		if p.HashRate <= 0 {
			return fmt.Errorf("sim: population %q solves but has hash rate %v", p.Name, p.HashRate)
		}
	case BehaviorIgnore, BehaviorBogus, BehaviorDowngrade:
	default:
		return fmt.Errorf("sim: population %q has unknown behavior %d", p.Name, int(p.Behavior))
	}
	for backend, s := range p.Speedup {
		if s <= 0 {
			return fmt.Errorf("sim: population %q speedup for %q must be positive, got %v", p.Name, backend, s)
		}
	}
	switch p.Feed {
	case FeedBenign, FeedMalicious, FeedUnknown:
	default:
		return fmt.Errorf("sim: population %q has unknown feed profile %d", p.Name, int(p.Feed))
	}
	if p.IPPool < 0 {
		return fmt.Errorf("sim: population %q has negative IP pool", p.Name)
	}
	if p.RotateEvery < 0 {
		return fmt.Errorf("sim: population %q has negative rotation interval", p.Name)
	}
	if p.FailRatio < 0 || p.FailRatio > 1 {
		return fmt.Errorf("sim: population %q fail ratio %v outside [0, 1]", p.Name, p.FailRatio)
	}
	return nil
}

// speedupFor reports the population's cost discount on the named backend
// (1: full price).
func (p Population) speedupFor(backend string) float64 {
	if s, ok := p.Speedup[backend]; ok {
		return s
	}
	return 1
}

// poolSize reports the population's effective address pool.
func (p Population) poolSize() int {
	if p.IPPool > 0 {
		return p.IPPool
	}
	return p.Clients
}

// Phase is one named window of a scenario's timeline. Phases run in
// declaration order; the scenario's duration is their sum.
type Phase struct {
	// Name labels the phase in reports and invariant references.
	Name string

	// Duration is the phase's simulated length.
	Duration time.Duration

	// RateScale multiplies named populations' arrival rates during the
	// phase: 0 switches a population off (the "off" half of a pulsing
	// attack), large factors model flash crowds and strikes. Populations
	// absent from the map run at their declared rate.
	RateScale map[string]float64

	// SwapPolicy, when non-empty, hot-swaps the defense's policy to this
	// registry spec (e.g. "policy2") as the phase begins — the paper's
	// mid-campaign operator move, applied through Pipeline.Apply (the
	// operator's hot-swap path) while workers keep deciding concurrently.
	// The swap happens at the tick boundary entering the phase (a
	// single-threaded point in the engine), so runs stay deterministic.
	// Stick to deterministic policies (see Scenario.Spec).
	SwapPolicy string
}

// validate rejects inconsistent phases.
func (ph Phase) validate(populations []Population) error {
	if ph.Name == "" {
		return fmt.Errorf("sim: phase without a name")
	}
	if ph.Duration <= 0 {
		return fmt.Errorf("sim: phase %q needs a positive duration, got %v", ph.Name, ph.Duration)
	}
	if ph.SwapPolicy != "" {
		// Compile the spec once up front so a typo fails at validation
		// time, not mid-campaign.
		if _, err := policy.Parse(ph.SwapPolicy); err != nil {
			return fmt.Errorf("sim: phase %q swap policy: %w", ph.Name, err)
		}
	}
	for name, scale := range ph.RateScale {
		if scale < 0 {
			return fmt.Errorf("sim: phase %q scales %q by negative %v", ph.Name, name, scale)
		}
		found := false
		for _, p := range populations {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: phase %q scales unknown population %q", ph.Name, name)
		}
	}
	return nil
}

// Network models the client↔server path and server-side service times.
// The engine has no queueing model — it measures cost asymmetry, not
// overload collapse — so these terms only shape end-to-end latency.
type Network struct {
	// OneWay is the one-way network delay per crossing (a full serve is
	// four crossings: request, challenge, solution, response).
	OneWay time.Duration

	// IssueTime and VerifyTime are the server-side service times for
	// challenge issuance and solution verification.
	IssueTime, VerifyTime time.Duration
}

// validate rejects physically meaningless networks.
func (n Network) validate() error {
	if n.OneWay < 0 || n.IssueTime < 0 || n.VerifyTime < 0 {
		return fmt.Errorf("sim: negative network delay or service time")
	}
	return nil
}

// ClusterSim configures the scenario's fleet mode: K defense nodes, each
// its own pipeline — framework, tracker and, with an adapt section, its
// own controller. A cluster section in the spec joins them through the
// cluster exchange plane, which the engine runs in-process over this
// topology; without one they serve side by side, each blind to the
// others. Clients hold a stable home node (client mod K) unless their
// population stripes.
type ClusterSim struct {
	// Nodes is the fleet size K (at least 2).
	Nodes int

	// ExchangeTicks is how many engine ticks pass between gossip rounds
	// (default 1). Larger values model a slower exchange interval, i.e.
	// more staleness.
	ExchangeTicks int

	// Degree is each node's pull fan-out: node i pulls from nodes
	// i+1 … i+Degree (mod K) each round. Zero defaults to K-1, a full
	// mesh; 1 is a ring — the partial-view deployment whose state
	// spreads transitively, one hop per round.
	Degree int
}

// validate rejects inconsistent fleet configurations.
func (c ClusterSim) validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("sim: cluster needs at least 2 nodes, got %d", c.Nodes)
	}
	if c.ExchangeTicks < 0 {
		return fmt.Errorf("sim: cluster has negative exchange interval")
	}
	if c.Degree < 0 || c.Degree > c.Nodes-1 {
		return fmt.Errorf("sim: cluster degree %d outside [0, %d]", c.Degree, c.Nodes-1)
	}
	return nil
}

// degree reports the effective pull fan-out.
func (c ClusterSim) degree() int {
	if c.Degree == 0 {
		return c.Nodes - 1
	}
	return c.Degree
}

// exchangeTicks reports the effective gossip interval in ticks.
func (c ClusterSim) exchangeTicks() int {
	if c.ExchangeTicks == 0 {
		return 1
	}
	return c.ExchangeTicks
}

// Scenario is one declarative adversarial experiment: a phased timeline, a
// set of client populations, the network they cross, the defense under
// test, and the invariants its outcome must satisfy.
type Scenario struct {
	// Name identifies the scenario in reports and -scenario filters.
	Name string

	// Description is a one-line summary for reports.
	Description string

	// Seed drives every random draw in the scenario, including the
	// synthetic feed and the model trained on it. Equal seeds produce
	// byte-identical reports.
	Seed uint64

	// Tick is the engine's time step (default 100 ms). Arrivals are
	// generated per tick and the framework clock advances tick by tick;
	// modeled latencies keep sub-tick resolution.
	Tick time.Duration

	// Workers is the engine's concurrency width (default 8, rounded up to
	// a power of two). Events shard onto workers by client IP, so per-IP
	// ordering — and therefore the report — is independent of scheduling.
	Workers int

	// Batch drives arrivals through the framework's batch entry points
	// (ObserveBatch/DecideBatch) instead of per-event Observe/Decide.
	// Grouping only ever spans consecutive same-tick arrivals with
	// distinct IPs, so the result is byte-identical to the single-op
	// path; the flag exists to exercise and regression-test exactly that
	// equivalence under the full adversarial suite.
	Batch bool

	// Phases is the timeline. At least one phase is required; the
	// scenario's duration is the sum of phase durations.
	Phases []Phase

	// Populations is the client mix. At least one is required.
	Populations []Population

	// Network shapes modeled latencies.
	Network Network

	// Spec declares the defense: the body of one pipeline block in the
	// deployment spec grammar (SPEC.md), which every node builds through
	// control.Registry over the simulated clock — the operator's build
	// path. The registry carries the paper's components over the
	// scenario's feed: scorer "dabr" and sources "feed" and "combined".
	// Stick to deterministic policies: policy3 draws from a shared PRNG per
	// decision, which is order-dependent under the engine's concurrency.
	Spec string

	// RealSolve switches the engine from modeled verification to real
	// nonce searches redeemed through Framework.Verify — the full
	// cryptographic path. Wall-clock cost is ~2^difficulty hashes per
	// request, so pair it with a low max-difficulty.
	RealSolve bool

	// Cluster, when non-nil, runs the defense as a K-node fleet instead
	// of a single node.
	Cluster *ClusterSim

	// Invariants are the asymmetry bounds the outcome must satisfy; any
	// violation fails the scenario (and the CI gate).
	Invariants []Invariant
}

// Duration reports the scenario's total simulated time span.
func (sc Scenario) Duration() time.Duration {
	var d time.Duration
	for _, ph := range sc.Phases {
		d += ph.Duration
	}
	return d
}

// TotalIPs reports the size of the scenario's address universe, the figure
// tracker capacity is sized from.
func (sc Scenario) TotalIPs() int {
	total := 0
	for _, p := range sc.Populations {
		total += p.poolSize()
	}
	return total
}

// validate rejects inconsistent scenarios and returns the parsed spec.
func (sc Scenario) validate() (control.PipelineSpec, error) {
	switch {
	case sc.Name == "":
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario without a name")
	case len(sc.Phases) == 0:
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario %q has no phases", sc.Name)
	case len(sc.Populations) == 0:
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario %q has no populations", sc.Name)
	case sc.Tick < 0:
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario %q has negative tick", sc.Name)
	case sc.Workers < 0:
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario %q has negative worker count", sc.Name)
	}
	ps, err := sc.PipelineSpec()
	if err != nil {
		return ps, err
	}
	if sc.Cluster != nil {
		if err := sc.Cluster.validate(); err != nil {
			return ps, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
	}
	seen := map[string]bool{}
	for _, p := range sc.Populations {
		if err := p.validate(); err != nil {
			return ps, err
		}
		switch {
		case p.Behavior == BehaviorDowngrade && !sc.RealSolve:
			// The downgrade attack only means anything against the real
			// verifier: modeled verification has no backend gate to beat.
			return ps, fmt.Errorf("sim: population %q downgrades but the defense is modeled; set RealSolve", p.Name)
		case p.Behavior == BehaviorReplayCross && (!sc.RealSolve || sc.Cluster == nil):
			// A replay must clear the real verifier once and be refused the
			// second time by the fleet filter; both need real verification
			// and a second node to replay against.
			return ps, fmt.Errorf("sim: population %q replays cross-node; that needs RealSolve and a Cluster", p.Name)
		case p.Stripe && sc.Cluster == nil:
			return ps, fmt.Errorf("sim: population %q stripes but the scenario has no Cluster", p.Name)
		case seen[p.Name]:
			return ps, fmt.Errorf("sim: duplicate population %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, ph := range sc.Phases {
		if err := ph.validate(sc.Populations); err != nil {
			return ps, err
		}
		if ph.SwapPolicy != "" && ps.Adapt != nil {
			// A swap rebuilds the controller at its base level, cutting
			// the transition log the report reads. One scripted hand on
			// the wheel or the controller, not both.
			return ps, fmt.Errorf("sim: scenario %q: phase %q SwapPolicy cannot be combined with an adapt section", sc.Name, ph.Name)
		}
	}
	if err := sc.Network.validate(); err != nil {
		return ps, err
	}
	for i, inv := range sc.Invariants {
		if err := inv.validate(sc, ps.Adapt != nil); err != nil {
			return ps, fmt.Errorf("sim: scenario %q invariant %d: %w", sc.Name, i, err)
		}
	}
	return ps, nil
}

// ip reports population pop's address k. Populations get disjoint /8-ish
// blocks so no two populations ever share an address.
func ip(pop, k int) string {
	return fmt.Sprintf("10.%d.%d.%d", pop, k/250, k%250+1)
}

// PopulationIPs lists the address pool of population index i, the set the
// defense builder registers feed attributes for.
func (sc Scenario) PopulationIPs(i int) []string {
	p := sc.Populations[i]
	out := make([]string, p.poolSize())
	for k := range out {
		out[k] = ip(i, k)
	}
	return out
}

// ipAt reports client c's address during tick t: stable without rotation,
// otherwise the pool block shifted by Clients every RotateEvery — each
// rotation lands the whole population on previously-idle addresses until
// the pool wraps.
func (p Population) ipAt(popIdx, client int, tickStart time.Duration) string {
	pool := p.poolSize()
	k := client % pool
	if p.RotateEvery > 0 {
		rotations := int(tickStart / p.RotateEvery)
		k = (client + rotations*p.Clients) % pool
	}
	return ip(popIdx, k)
}
