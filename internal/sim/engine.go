// Package sim is a deterministic adversarial scenario engine: it drives a
// real core.Framework — the same scoring → policy → issuance pipeline that
// serves production traffic, sharded tracker included — with
// declaratively-defined mixed client populations (steady legitimate
// traffic, flash crowds, pulsing attackers, rotating-IP
// botnets, slow-and-low probers, reputation-poisoning warmups) and scores
// each run against declared economic-asymmetry invariants.
//
// Two properties hold at once, and their combination is the point:
//
//   - Concurrency: within each simulated tick, events run across a pool
//     of workers that call Decide/Observe concurrently, so every run
//     exercises the framework's lock-striped hot path under realistic
//     contention (and under the race detector in tests).
//
//   - Determinism: events shard onto workers by client IP, every random
//     draw comes from a PRNG seeded by position (scenario seed ×
//     population × tick × event) rather than by arrival order, per-worker
//     results merge in fixed worker order, and time is a simulated clock.
//     Two runs with the same seed produce byte-identical reports, which
//     is what lets CI diff SIM_scenarios.json and gate on regressions.
//
// The engine deliberately has no server queueing model: internal/attack
// (on the netsim event loop) measures overload collapse; this engine
// measures the paper's central claim — who pays how much work for how much
// service — under adversarial traffic mixes. Solving is modeled as the
// same geometric process a real solver executes (netsim.SimSolver); with
// Defense.RealSolve the engine additionally performs real nonce searches
// and redeems them through Framework.Verify, exercising the cryptographic
// path end to end at low difficulties.
package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"aipow/internal/cluster"
	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/metrics"
	"aipow/internal/netsim"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// Default engine parameters.
const (
	// DefaultTick is the engine time step when Scenario.Tick is zero.
	DefaultTick = 100 * time.Millisecond

	// DefaultWorkers is the concurrency width when Scenario.Workers is
	// zero. Events shard by IP across workers, so the width changes only
	// scheduling, never results.
	DefaultWorkers = 8
)

// outcome accumulates one (population, phase) cell's results. Workers each
// own a private set; the engine merges them in worker order, so every
// floating-point sum accumulates in the same order on every run.
type outcome struct {
	requests      uint64
	challenged    uint64
	bypassed      uint64
	served        uint64
	ignored       uint64
	gaveUp        uint64
	expired       uint64
	rejected      uint64
	scoreErrors   uint64
	decideErrors  uint64
	solveAttempts uint64
	diffSum       uint64
	diffHist      map[int]uint64
	scoreSum      float64
	latency       *metrics.Histogram // end-to-end served latency, ms
	work          *metrics.Histogram // modeled hashes per solved request
}

func newOutcome() *outcome {
	return &outcome{
		diffHist: make(map[int]uint64),
		latency:  metrics.NewLatencyHistogram(),
		// Power-of-two buckets: 1 hash to ~2^40, matching the geometric
		// solve process, so the median cost estimate is sharp.
		work: metrics.NewHistogram(1, 2, 40),
	}
}

// merge folds other into o (deterministic given call order).
func (o *outcome) merge(other *outcome) {
	o.requests += other.requests
	o.challenged += other.challenged
	o.bypassed += other.bypassed
	o.served += other.served
	o.ignored += other.ignored
	o.gaveUp += other.gaveUp
	o.expired += other.expired
	o.rejected += other.rejected
	o.scoreErrors += other.scoreErrors
	o.decideErrors += other.decideErrors
	o.solveAttempts += other.solveAttempts
	o.diffSum += other.diffSum
	for d, n := range other.diffHist {
		o.diffHist[d] += n
	}
	o.scoreSum += other.scoreSum
	o.latency.Merge(other.latency)
	o.work.Merge(other.work)
}

// Result is one scenario's raw outcome: per-population, per-phase cells
// plus the framework's own counters as a cross-check.
type Result struct {
	// Scenario echoes the (defaults-resolved) input.
	Scenario Scenario

	// Outcomes is indexed [population][phase].
	Outcomes [][]*outcome

	// FrameworkStats snapshots the framework's counters (issued,
	// verified, rejected, bypassed, score_errors) after the run.
	FrameworkStats map[string]float64

	// Adapt summarizes the feedback controller's behavior (nil when the
	// defense declares no adapt section).
	Adapt *AdaptOutcome

	// Events is the run's merged defense event log (nil unless the
	// defense sets Events).
	Events []obs.Event
}

// event is one unit of simulated work, processed by the worker owning its
// client IP.
type event struct {
	completion bool
	pop        int
	phase      int
	client     int
	node       int // fleet node serving the event (0 outside cluster mode)
	ip         string
	at         time.Duration // event time, offset from scenario start
	seed       uint64        // per-event PRNG seed (arrivals)

	// Completion-only fields.
	sentAt time.Duration
	diff   int  // assigned difficulty (0 for bypassed completions)
	verify bool // redeem sol through Framework.Verify (real-solve mode)
	replay bool // cross-node resubmission of an already-redeemed sol
	sol    puzzle.Solution
}

// worker owns a shard of the IP space: a calendar of future events and a
// private outcome grid. Workers never touch each other's state, which is
// what makes concurrent execution order-independent.
type worker struct {
	eng    *engine
	future map[int][]event // tick index → events, processed in append order
	out    [][]*outcome    // [population][phase]
	solver *puzzle.Solver

	// Modeled verification accounting for the feedback signal plane,
	// per fleet node (length 1 outside cluster mode): a modeled
	// completion is the simulation shortcut for a solved-and-verified
	// challenge, so each node's controller source folds these counts
	// into that node's verify counters. Read only at tick boundaries
	// (single-threaded points).
	mVerified [][puzzle.MaxDifficulty + 1]uint64
	mExpired  []uint64

	// Batch-mode scratch, reused across runs within the worker's ticks.
	seen   []string
	runArr []arrival
	runObs []features.RequestInfo
	runReq []core.RequestContext
	runDec []core.Decision
}

// schedule queues ev at the tick containing its event time. Scheduling
// into the worker's current tick is allowed (the tick loop re-checks its
// queue length), so zero-delay completions land in the same tick.
func (w *worker) schedule(tick int, ev event) {
	w.future[tick] = append(w.future[tick], ev)
}

// simNode is one fleet member of a run: a full defense pipeline plus its
// cluster exchange endpoint and (with Defense.Adapt) its own controller.
// Single-framework runs are the one-node degenerate case with no cluster
// endpoint, so the two modes share every code path.
type simNode struct {
	fw      *core.Framework
	tracker *features.Tracker
	cnode   *cluster.Node        // nil outside cluster mode
	ctrl    *feedback.Controller // nil without Defense.Adapt
	elog    *obs.EventLog        // nil without Defense.Events
}

// eventSink is the node's defense event sink, stamped with the node's
// fleet origin when the run has more than one member. Nil without
// Defense.Events, so the zero-configuration path emits nothing.
func (n *simNode) eventSink(origin string, fleet bool) obs.Sink {
	if n.elog == nil {
		return nil
	}
	if !fleet {
		return n.elog.Append
	}
	return func(e obs.Event) {
		e.Node = origin
		n.elog.Append(e)
	}
}

// engine is the per-run state.
type engine struct {
	sc       Scenario
	nodes    []*simNode
	clock    *Clock
	tick     time.Duration
	workers  []*worker
	mask     uint32
	ttl      time.Duration
	phaseEnd []time.Duration // cumulative phase boundaries

	// attemptCost and backendName describe the defense's puzzle backend
	// for modeled-cost accounting: each modeled solve attempt is priced at
	// attemptCost hash-equivalents (1 for hashcash, space-and-rounds
	// dependent for balloon), discounted by the solving population's
	// Speedup factor for backendName.
	attemptCost float64
	backendName string
}

// Run executes the scenario and returns its raw result. The run is
// deterministic: equal scenarios (including Seed) produce equal results,
// bit for bit, regardless of GOMAXPROCS or scheduling.
func Run(sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Tick == 0 {
		sc.Tick = DefaultTick
	}
	if sc.Workers == 0 {
		sc.Workers = DefaultWorkers
	}
	sc.Workers = ceilPow2(sc.Workers)
	sc.Defense = sc.Defense.withDefaults(sc.Seed)

	clock := NewClock(Epoch())
	backend, err := puzzle.ParseBackendSpec(sc.Defense.Puzzle)
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q puzzle: %w", sc.Name, err)
	}
	eng := &engine{
		sc:          sc,
		clock:       clock,
		tick:        sc.Tick,
		mask:        uint32(sc.Workers - 1),
		ttl:         sc.Defense.TTL,
		attemptCost: backend.AttemptCost(),
		backendName: backend.Name(),
	}
	if err := eng.buildNodes(); err != nil {
		return nil, err
	}
	var cum time.Duration
	for _, ph := range sc.Phases {
		cum += ph.Duration
		eng.phaseEnd = append(eng.phaseEnd, cum)
	}
	eng.workers = make([]*worker, sc.Workers)
	for i := range eng.workers {
		w := &worker{eng: eng, future: make(map[int][]event)}
		w.out = make([][]*outcome, len(sc.Populations))
		for p := range w.out {
			w.out[p] = make([]*outcome, len(sc.Phases))
			for ph := range w.out[p] {
				w.out[p][ph] = newOutcome()
			}
		}
		w.mVerified = make([][puzzle.MaxDifficulty + 1]uint64, len(eng.nodes))
		w.mExpired = make([]uint64, len(eng.nodes))
		if sc.Defense.RealSolve {
			w.solver = puzzle.NewSolver(puzzle.WithExtendedNonce())
		}
		eng.workers[i] = w
	}
	if err := eng.buildAdapt(); err != nil {
		return nil, err
	}

	ticks := int((sc.Duration() + sc.Tick - 1) / sc.Tick)
	lastPhase := -1
	for t := 0; t < ticks; t++ {
		tickStart := time.Duration(t) * eng.tick
		clock.Set(Epoch().Add(tickStart))
		phase := eng.phaseOf(tickStart)
		// Phase-entry policy swaps run here, between ticks: the engine is
		// single-threaded at this point (runTick's barrier has passed), so
		// the swap lands at a deterministic position in the event order
		// while still exercising the real RCU swap against the concurrent
		// workers of the following ticks.
		for p := lastPhase + 1; p <= phase; p++ {
			if err := eng.applyPhaseSwap(p); err != nil {
				return nil, err
			}
		}
		lastPhase = phase
		// Cluster gossip runs at the same single-threaded point, in fixed
		// node order, so peer views update deterministically before the
		// controllers read them.
		if cs := sc.Cluster; cs != nil && t%cs.exchangeTicks() == 0 {
			eng.exchangeRounds(1)
		}
		// The feedback controllers step at the same single-threaded
		// point, on counters complete through the previous tick — the
		// closed loop runs against the live framework exactly as a
		// server's adapt ticker would, minus wall-clock dependence.
		for _, n := range eng.nodes {
			if n.ctrl == nil {
				continue
			}
			if err := n.ctrl.Step(clock.Now()); err != nil {
				return nil, fmt.Errorf("sim: scenario %q adapt: %w", sc.Name, err)
			}
		}
		eng.generateArrivals(t, tickStart)
		eng.runTick(t)
	}
	// Drain: keep ticking (no new arrivals) until every in-flight solve
	// completes, so tail requests are served rather than silently cut off
	// at the horizon. Jump straight to the next scheduled tick — a slow
	// population's modeled solve can land millions of ticks out, and
	// walking the empty ticks between events would take longer than the
	// events themselves.
	for {
		t, ok := eng.nextPending(ticks)
		if !ok {
			break
		}
		clock.Set(Epoch().Add(time.Duration(t) * eng.tick))
		if sc.Cluster != nil {
			// The drain jumps over empty ticks, so per-tick gossip rounds
			// no longer accumulate; run a full diameter's worth before each
			// drained tick so anything redeemed on the last processed tick
			// has reached every node (the cross-node replay bound).
			eng.exchangeRounds(eng.clusterDiameter())
		}
		eng.runTick(t)
	}

	res := &Result{Scenario: sc, FrameworkStats: make(map[string]float64, 8)}
	if len(eng.nodes) == 1 {
		eng.nodes[0].fw.StatsInto(res.FrameworkStats)
	} else {
		// Fleet counters sum pointwise: one logical defense, K serving
		// nodes. Key-by-key accumulation in fixed node order keeps the
		// float sums deterministic.
		scratch := make(map[string]float64, 16)
		for _, n := range eng.nodes {
			clear(scratch)
			n.fw.StatsInto(scratch)
			for k, v := range scratch {
				res.FrameworkStats[k] += v
			}
		}
	}
	res.Adapt = eng.adaptResult()
	res.Events = eng.eventResult()
	res.Outcomes = make([][]*outcome, len(sc.Populations))
	for p := range res.Outcomes {
		res.Outcomes[p] = make([]*outcome, len(sc.Phases))
		for ph := range res.Outcomes[p] {
			merged := newOutcome()
			for _, w := range eng.workers { // fixed order: deterministic float sums
				merged.merge(w.out[p][ph])
			}
			res.Outcomes[p][ph] = merged
		}
	}
	return res, nil
}

// buildNodes assembles the run's defense node(s): one framework from the
// scenario's factory (or the built-in Defense) in the single-node case, K
// identically-trained pipelines joined by in-process cluster nodes in
// fleet mode. Identical dataset seeds mean every fleet node scores with
// the same model over the same store; only live per-node state (tracker,
// replay window, counters) diverges — exactly a real fleet's shape.
func (eng *engine) buildNodes() error {
	sc := eng.sc
	if sc.Cluster == nil {
		node := &simNode{}
		if sc.Factory != nil {
			fw, err := sc.Factory(eng.clock.Now)
			if err != nil {
				return fmt.Errorf("sim: build defense for %q: %w", sc.Name, err)
			}
			if fw == nil {
				return fmt.Errorf("sim: scenario %q factory returned a nil framework", sc.Name)
			}
			node.fw = fw
			eng.nodes = []*simNode{node}
			return nil
		}
		var extra []core.Option
		if sc.Defense.Events {
			node.elog = obs.NewEventLog(0)
			extra = append(extra, core.WithEventSink(node.eventSink("", false)))
		}
		fw, tracker, err := buildDefenseNode(sc, eng.clock.Now, extra...)
		if err != nil {
			return fmt.Errorf("sim: build defense for %q: %w", sc.Name, err)
		}
		node.fw, node.tracker = fw, tracker
		eng.nodes = []*simNode{node}
		return nil
	}
	d := sc.Defense.withDefaults(sc.Seed)
	eng.nodes = make([]*simNode, sc.Cluster.Nodes)
	for i := range eng.nodes {
		origin := fmt.Sprintf("n%d", i)
		node := &simNode{}
		if sc.Defense.Events {
			node.elog = obs.NewEventLog(0)
		}
		cnode, err := cluster.NewNode(cluster.Config{
			Origin:     origin,
			FilterBits: sc.Cluster.FilterBits,
			// Retain through the full redemption window — TTL plus skew on
			// both ends — so the fleet filter never lets a tag go before
			// the challenge's own freshness check takes over.
			Retain:     d.TTL + 2*2*time.Second,
			DeltaEvery: sc.Cluster.DeltaEvery,
			Now:        eng.clock.Now,
			Events:     node.eventSink(origin, true),
		})
		if err != nil {
			return fmt.Errorf("sim: scenario %q cluster node %d: %w", sc.Name, i, err)
		}
		extra := []core.Option{core.WithTagExchange(cnode)}
		if sc.Defense.Events {
			extra = append(extra, core.WithEventSink(node.eventSink(origin, true)))
		}
		fw, tracker, err := buildDefenseNode(sc, eng.clock.Now, extra...)
		if err != nil {
			return fmt.Errorf("sim: build defense for %q node %d: %w", sc.Name, i, err)
		}
		cnode.BindLocal(adaptSource{eng: eng, node: i}, tracker)
		node.fw, node.tracker, node.cnode = fw, tracker, cnode
		eng.nodes[i] = node
	}
	return nil
}

// exchangeRounds runs the fleet's gossip topology the given number of
// rounds: each round, node i pulls from nodes i+1 … i+Degree (mod K), in
// fixed order — the deterministic in-process analogue of every node's
// exchange loop firing once.
func (eng *engine) exchangeRounds(rounds int) {
	cs := eng.sc.Cluster
	k, deg := len(eng.nodes), cs.degree()
	for r := 0; r < rounds; r++ {
		for i := 0; i < k; i++ {
			for d := 1; d <= deg; d++ {
				eng.nodes[i].cnode.ExchangeWith(eng.nodes[(i+d)%k].cnode)
			}
		}
	}
}

// clusterDiameter reports how many gossip rounds state needs to reach
// every node under the pull topology (1 for a full mesh, K-1 for a ring).
func (eng *engine) clusterDiameter() int {
	deg := eng.sc.Cluster.degree()
	return (len(eng.nodes) - 2 + deg) / deg
}

// buildAdapt compiles the defense's adapt section into one feedback
// controller per node, each bound to its node's framework and counter
// view. With Cluster.FleetFeedback the view is the node's own counters
// summed with its peer-reported fleet state, so every controller's rate
// thresholds see cluster-wide totals. Policies resolve against the
// built-in registry and are clamped to the defense's difficulty cap,
// mirroring BuildDefense.
func (eng *engine) buildAdapt() error {
	a := eng.sc.Defense.Adapt
	if a == nil {
		return nil
	}
	compileClamped := func(spec string) (policy.Policy, error) {
		pol, err := policy.NewRegistry().New(spec)
		if err != nil {
			return nil, err
		}
		return policy.NewClamp(pol, 1, eng.sc.Defense.MaxDifficulty)
	}
	rules := make([]feedback.Rule, 0, len(a.Rules))
	for _, spec := range a.Rules {
		rule, err := feedback.ParseRule(spec)
		if err != nil {
			return fmt.Errorf("sim: scenario %q: %w", eng.sc.Name, err)
		}
		rules = append(rules, rule)
	}
	for i, n := range eng.nodes {
		base, err := compileClamped(eng.sc.Defense.Policy)
		if err != nil {
			return fmt.Errorf("sim: scenario %q adapt base policy: %w", eng.sc.Name, err)
		}
		ctrl, err := feedback.New(feedback.Config{
			Sampler: feedback.SamplerConfig{
				Capacity:       a.Capacity,
				HardDifficulty: a.Hard,
				Window:         a.Window,
			},
			Rules:   rules,
			Compile: compileClamped,
			Base:    base,
			Events:  n.eventSink(fmt.Sprintf("n%d", i), len(eng.nodes) > 1),
		})
		if err != nil {
			return fmt.Errorf("sim: scenario %q adapt: %w", eng.sc.Name, err)
		}
		var src feedback.Source = adaptSource{eng: eng, node: i}
		if cs := eng.sc.Cluster; cs != nil && cs.FleetFeedback {
			src = feedback.NewSumSource(src, n.cnode.PeerSource())
		}
		ctrl.Bind(n.fw, src)
		n.ctrl = ctrl
	}
	return nil
}

// adaptSource is one node's counter view of a simulated defense: the
// framework's own counters plus the engine's modeled verification
// outcomes on that node, so the signal plane sees the same
// solved-challenge stream a real deployment's Verify calls would
// produce. It is also what each cluster node gossips as its origin
// section. Only read at tick boundaries, where workers are quiescent.
type adaptSource struct {
	eng  *engine
	node int
}

// StatsInto implements feedback.Source.
func (s adaptSource) StatsInto(dst map[string]float64) {
	s.eng.nodes[s.node].fw.StatsInto(dst)
	var verified, expired uint64
	for _, w := range s.eng.workers { // fixed order
		for d := puzzle.MinDifficulty; d < len(w.mVerified[s.node]); d++ {
			verified += w.mVerified[s.node][d]
		}
		expired += w.mExpired[s.node]
	}
	dst["verified"] += float64(verified)
	dst["rejected"] += float64(expired)
}

// DifficultyProfileInto implements feedback.Source.
func (s adaptSource) DifficultyProfileInto(issued, verified []uint64) {
	s.eng.nodes[s.node].fw.DifficultyProfileInto(issued, verified)
	for _, w := range s.eng.workers {
		for d := puzzle.MinDifficulty; d < len(w.mVerified[s.node]) && d < len(verified); d++ {
			verified[d] += w.mVerified[s.node][d]
		}
	}
}

// AdaptOutcome summarizes the feedback controller's behavior over a run.
type AdaptOutcome struct {
	// Swaps counts controller-installed policy swaps.
	Swaps uint64 `json:"swaps"`

	// MaxLevel and FinalLevel are the highest level reached and the level
	// at the end of the phased timeline.
	MaxLevel   int `json:"max_level"`
	FinalLevel int `json:"final_level"`

	// FirstEscalationMS and FirstDeescalationMS are offsets from scenario
	// start (0 = never happened).
	FirstEscalationMS   float64 `json:"first_escalation_ms"`
	FirstDeescalationMS float64 `json:"first_deescalation_ms"`

	// Transitions is the full level-change log.
	Transitions []AdaptTransition `json:"transitions,omitempty"`
}

// AdaptTransition is one controller level change, in scenario time. Node
// identifies the fleet member whose controller moved (only set in cluster
// mode, where each node runs its own controller).
type AdaptTransition struct {
	AtMS float64 `json:"at_ms"`
	From int     `json:"from"`
	To   int     `json:"to"`
	Rule string  `json:"rule,omitempty"`
	Node int     `json:"node,omitempty"`
}

// adaptOutcome flattens the controller's transition log into the report
// form, with times as offsets from the scenario epoch. Explicit booleans
// track "seen": a ms value of 0 is a legal transition time (a rule true
// on zero signals fires at the first tick), not the never-happened
// sentinel.
func adaptOutcome(ctrl *feedback.Controller) *AdaptOutcome {
	out := &AdaptOutcome{Swaps: ctrl.Swaps(), FinalLevel: ctrl.Level()}
	var sawUp, sawDown bool
	for _, tr := range ctrl.Transitions() {
		ms := float64(tr.At.Sub(Epoch())) / float64(time.Millisecond)
		out.Transitions = append(out.Transitions, AdaptTransition{
			AtMS: ms, From: tr.From, To: tr.To, Rule: tr.Rule,
		})
		if tr.To > out.MaxLevel {
			out.MaxLevel = tr.To
		}
		if tr.To > tr.From && !sawUp {
			out.FirstEscalationMS, sawUp = ms, true
		}
		if tr.To < tr.From && !sawDown {
			out.FirstDeescalationMS, sawDown = ms, true
		}
	}
	return out
}

// adaptResult summarizes the run's controller behavior: the single
// controller's outcome verbatim in the one-node case (so standalone
// reports stay byte-identical), or the fleet's controllers folded into
// one log — swaps sum, levels take the max, transitions interleave by
// time with their node index, and the first-escalation clock reads the
// earliest node to move (the fleet's detection latency).
func (eng *engine) adaptResult() *AdaptOutcome {
	if eng.nodes[0].ctrl == nil {
		return nil
	}
	if len(eng.nodes) == 1 {
		return adaptOutcome(eng.nodes[0].ctrl)
	}
	agg := &AdaptOutcome{}
	for i, n := range eng.nodes {
		o := adaptOutcome(n.ctrl)
		agg.Swaps += o.Swaps
		if o.MaxLevel > agg.MaxLevel {
			agg.MaxLevel = o.MaxLevel
		}
		if o.FinalLevel > agg.FinalLevel {
			agg.FinalLevel = o.FinalLevel
		}
		for _, tr := range o.Transitions {
			tr.Node = i
			agg.Transitions = append(agg.Transitions, tr)
		}
	}
	sort.SliceStable(agg.Transitions, func(a, b int) bool {
		return agg.Transitions[a].AtMS < agg.Transitions[b].AtMS
	})
	var sawUp, sawDown bool
	for _, tr := range agg.Transitions {
		if tr.To > tr.From && !sawUp {
			agg.FirstEscalationMS, sawUp = tr.AtMS, true
		}
		if tr.To < tr.From && !sawDown {
			agg.FirstDeescalationMS, sawDown = tr.AtMS, true
		}
	}
	return agg
}

// eventResult merges the per-node defense event logs into one stream:
// the single node's log verbatim, or the fleet's logs interleaved by
// event time (stable within a node, fixed node order at ties), so equal
// seeds produce equal event sequences.
func (eng *engine) eventResult() []obs.Event {
	if eng.nodes[0].elog == nil {
		return nil
	}
	if len(eng.nodes) == 1 {
		return eng.nodes[0].elog.Snapshot()
	}
	var out []obs.Event
	for _, n := range eng.nodes {
		out = append(out, n.elog.Snapshot()...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].At.Before(out[b].At)
	})
	return out
}

// applyPhaseSwap installs phase p's SwapPolicy (if any) on the framework,
// clamped to the defense's difficulty cap like the original policy.
func (eng *engine) applyPhaseSwap(p int) error {
	spec := eng.sc.Phases[p].SwapPolicy
	if spec == "" {
		return nil
	}
	pol, err := policy.NewRegistry().New(spec)
	if err != nil {
		return fmt.Errorf("sim: phase %q swap policy: %w", eng.sc.Phases[p].Name, err)
	}
	clamped, err := policy.NewClamp(pol, 1, eng.sc.Defense.MaxDifficulty)
	if err != nil {
		return fmt.Errorf("sim: phase %q clamp swap policy: %w", eng.sc.Phases[p].Name, err)
	}
	for _, n := range eng.nodes {
		if err := n.fw.SwapPolicy(clamped); err != nil {
			return fmt.Errorf("sim: phase %q swap policy: %w", eng.sc.Phases[p].Name, err)
		}
	}
	return nil
}

// phaseOf reports the phase index containing offset t (clamped to the last
// phase for drain-time completions).
func (eng *engine) phaseOf(t time.Duration) int {
	for i, end := range eng.phaseEnd {
		if t < end {
			return i
		}
	}
	return len(eng.phaseEnd) - 1
}

// generateArrivals draws each population's tick-t arrivals and deals them
// to their IP-owning workers. It runs single-threaded between ticks, and
// every draw comes from a position-seeded PRNG, so the dealt queues are
// identical on every run.
func (eng *engine) generateArrivals(t int, tickStart time.Duration) {
	phase := eng.phaseOf(tickStart)
	ph := eng.sc.Phases[phase]
	tickSec := eng.tick.Seconds()
	for pi := range eng.sc.Populations {
		p := &eng.sc.Populations[pi]
		scale := 1.0
		if s, ok := ph.RateScale[p.Name]; ok {
			scale = s
		}
		lambda := float64(p.Clients) * p.Rate * scale * tickSec
		if lambda <= 0 {
			continue
		}
		rng := rand.New(rand.NewPCG(mix(eng.sc.Seed, uint64(pi)+1, uint64(t)+1), 0xA11CE5EED))
		n := poisson(rng, lambda)
		for i := 0; i < n; i++ {
			client := rng.IntN(p.Clients)
			addr := p.ipAt(pi, client, tickStart)
			ev := event{
				pop:    pi,
				phase:  phase,
				client: client,
				ip:     addr,
				at:     tickStart,
				seed:   rng.Uint64(),
			}
			// Fleet routing: stable client→node affinity by default (a
			// load balancer with session stickiness), or an independent
			// per-request draw for striping populations — the attacker
			// spreading each IP's footprint 1/K across the fleet. The
			// extra draw only happens in cluster mode, so single-node
			// arrival streams are bit-identical to the pre-fleet engine.
			if k := len(eng.nodes); k > 1 {
				if p.Stripe {
					ev.node = int(rng.Uint64N(uint64(k)))
				} else {
					ev.node = client % k
				}
			}
			eng.workers[eng.workerFor(addr)].schedule(t, ev)
		}
	}
}

// workerFor shards an IP onto a worker by (unseeded, run-stable) FNV-1a.
func (eng *engine) workerFor(ip string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(ip))
	return h.Sum32() & eng.mask
}

// runTick executes every worker's tick-t queue concurrently. Workers only
// append to their own calendars, so the barrier at the end of the tick is
// the only synchronization the engine needs.
func (eng *engine) runTick(t int) {
	var wg sync.WaitGroup
	for _, w := range eng.workers {
		if len(w.future[t]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.runTick(t)
		}(w)
	}
	wg.Wait()
}

// nextPending reports the earliest tick (≥ floor) any worker still has
// events scheduled for, and whether one exists.
func (eng *engine) nextPending(floor int) (int, bool) {
	best, found := 0, false
	for _, w := range eng.workers {
		for t := range w.future {
			if t < floor {
				t = floor // cannot happen (tickOf clamps), but stay safe
			}
			if !found || t < best {
				best, found = t, true
			}
		}
	}
	return best, found
}

// runTick processes the worker's queue for tick t in append order. The
// queue may grow while iterating (same-tick completions), so the loop
// re-reads its length. In batch mode (Scenario.Batch) maximal runs of
// consecutive arrivals with distinct IPs flow through the framework's
// batch entry points; everything else — and the relative order of
// arrivals and completions — is unchanged, so the report stays
// byte-identical to the single-op path.
func (w *worker) runTick(t int) {
	for i := 0; i < len(w.future[t]); i++ {
		ev := w.future[t][i]
		if ev.completion {
			w.complete(t, ev)
			continue
		}
		if !w.eng.sc.Batch {
			w.arrive(t, ev)
			continue
		}
		// Extend the run while the next events are arrivals for IPs not
		// yet in it. A repeated IP must break the run: in single-op order
		// its second Decide sees its first Observe, and a batch (all
		// observes before all decides) would leak that observation into
		// the *first* decide. Distinct IPs only touch distinct tracker
		// entries, so observe/decide commute across items. A node change
		// also breaks the run: one batch call targets one framework.
		j := i + 1
		w.seen = append(w.seen[:0], w.future[t][i].ip)
		for ; j < len(w.future[t]); j++ {
			nxt := w.future[t][j]
			if nxt.completion || nxt.node != ev.node || w.seenIP(nxt.ip) {
				break
			}
			w.seen = append(w.seen, nxt.ip)
		}
		if j == i+1 {
			w.arrive(t, ev)
		} else {
			w.arriveBatch(t, w.future[t][i:j])
		}
		i = j - 1
	}
	delete(w.future, t)
}

// seenIP reports whether ip is already in the current run scratch.
func (w *worker) seenIP(ip string) bool {
	for _, s := range w.seen {
		if s == ip {
			return true
		}
	}
	return false
}

// arrival carries the deterministic per-event state computed before the
// framework call (prepare) into the post-decide half (finish), so the
// single-op and batched paths share every draw of the event's RNG.
type arrival struct {
	ev     event
	rng    *rand.Rand
	path   string
	failed bool
}

// prepare runs the pre-framework half of an arrival: counters and the
// event-RNG draws that feed the observation.
func (w *worker) prepare(ev event) arrival {
	p := &w.eng.sc.Populations[ev.pop]
	w.out[ev.pop][ev.phase].requests++

	rng := rand.New(rand.NewPCG(ev.seed, 0x5EEDFACE))
	path := "/"
	if len(p.Paths) > 0 {
		path = p.Paths[rng.IntN(len(p.Paths))]
	}
	failed := p.FailRatio > 0 && rng.Float64() < p.FailRatio
	return arrival{ev: ev, rng: rng, path: path, failed: failed}
}

// arriveBatch is arrive over a run of distinct-IP arrivals: one
// ObserveBatch, one DecideBatch, then the per-event post-decide logic in
// original order.
func (w *worker) arriveBatch(t int, evs []event) {
	eng := w.eng
	now := eng.clock.Now()
	fw := eng.nodes[evs[0].node].fw // runs never span nodes

	w.runArr = w.runArr[:0]
	w.runObs = w.runObs[:0]
	w.runReq = w.runReq[:0]
	for _, ev := range evs {
		a := w.prepare(ev)
		w.runArr = append(w.runArr, a)
		w.runObs = append(w.runObs, features.RequestInfo{IP: ev.ip, Path: a.path, At: now, Failed: a.failed})
		w.runReq = append(w.runReq, core.RequestContext{IP: ev.ip})
	}
	_ = fw.ObserveBatch(w.runObs)

	var err error
	w.runDec, err = fw.DecideBatch(w.runReq, w.runDec[:0])
	for k := range w.runArr {
		if err != nil {
			w.out[evs[k].pop][evs[k].phase].decideErrors++
			continue
		}
		w.finish(t, w.runArr[k], w.runDec[k])
	}
}

// arrive runs protocol steps 1–5 for one request: observe, decide, and —
// per the population's behavior — model (or really perform) the solve and
// schedule the completion.
func (w *worker) arrive(t int, ev event) {
	eng := w.eng
	a := w.prepare(ev)
	fw := eng.nodes[ev.node].fw

	now := eng.clock.Now()
	_ = fw.Observe(features.RequestInfo{IP: ev.ip, Path: a.path, At: now, Failed: a.failed})

	dec, err := fw.Decide(core.RequestContext{IP: ev.ip})
	if err != nil {
		w.out[ev.pop][ev.phase].decideErrors++
		return
	}
	w.finish(t, a, dec)
}

// finish runs the post-decide half of an arrival: score accounting,
// behavior dispatch, solve modeling, and completion scheduling.
func (w *worker) finish(t int, a arrival, dec core.Decision) {
	eng := w.eng
	ev, rng := a.ev, a.rng
	p := &eng.sc.Populations[ev.pop]
	o := w.out[ev.pop][ev.phase]
	if dec.ScoreErr != nil {
		o.scoreErrors++
	}
	o.scoreSum += dec.Score

	net := eng.sc.Network
	if dec.Bypassed {
		o.bypassed++
		done := ev
		done.completion = true
		done.sentAt = ev.at
		done.at = ev.at + 2*net.OneWay + net.IssueTime
		w.schedule(eng.tickOf(done.at, t), done)
		return
	}

	o.challenged++
	o.diffSum += uint64(dec.Difficulty)
	o.diffHist[dec.Difficulty]++

	switch p.Behavior {
	case BehaviorIgnore:
		o.ignored++
		return
	case BehaviorBogus:
		// The forged-solution attacker: skip the work entirely and submit
		// the challenge back with a corrupted tag — verification fails the
		// HMAC check deterministically (no lucky low-difficulty nonces),
		// costing the attacker nothing but lighting up the defense's
		// verify_fail_rate signal and the IP's fail-streak evidence.
		done := ev
		done.completion = true
		done.sentAt = ev.at
		done.diff = dec.Difficulty
		done.verify = true
		done.sol = puzzle.Solution{Challenge: dec.Challenge}
		done.sol.Challenge.Tag[0] ^= 0xFF
		done.at = ev.at + 4*net.OneWay + net.IssueTime + net.VerifyTime
		w.schedule(eng.tickOf(done.at, t), done)
		return
	case BehaviorDowngrade:
		// The downgrade attacker: re-encode the issued challenge as a
		// Version1 hashcash token (drop the backend identity, keep seed,
		// difficulty, and tag), really solve the cheap single-SHA-256 form,
		// and submit. The verifier's pinned version/backend gate rejects it
		// before any digest work — and even without that gate, the tag was
		// computed over the v2 canonical (a disjoint HMAC domain), so the
		// rewritten token could never authenticate. Scenario validation
		// guarantees RealSolve, so w.solver is always present here.
		down := dec.Challenge
		down.Version = puzzle.Version1
		down.Backend, down.Space, down.Rounds = 0, 0, 0
		sol, _, err := w.solver.Solve(context.Background(), down)
		if err != nil {
			o.decideErrors++
			return
		}
		done := ev
		done.completion = true
		done.sentAt = ev.at
		done.diff = dec.Difficulty
		done.verify = true
		done.sol = sol
		done.at = ev.at + 4*net.OneWay + net.IssueTime + net.VerifyTime
		w.schedule(eng.tickOf(done.at, t), done)
		return
	case BehaviorGiveUpAbove:
		if dec.Difficulty > p.GiveUpAt {
			o.gaveUp++
			return
		}
	}

	// The solve cost is always *modeled* from the same geometric process a
	// real solver executes, so cost accounting stays deterministic even
	// when RealSolve burns real hashes below. Attempts convert to
	// effective hash-equivalents through the backend's per-attempt cost
	// and the population's hardware discount for it: a GPU botnet pays a
	// fraction of hashcash's price but nearly full price for the
	// memory-hard backend. Hashcash at speedup 1 makes this a multiply
	// and divide by 1.0 — bit-identical to the pre-backend accounting.
	attempts := netsim.SimSolver{HashRate: p.HashRate}.Attempts(dec.Difficulty, rng)
	effUnits := attempts * eng.attemptCost / p.speedupFor(eng.backendName)
	o.solveAttempts += uint64(effUnits)
	o.work.Observe(effUnits)
	solveTime := time.Duration(effUnits / p.HashRate * float64(time.Second))

	done := ev
	done.completion = true
	done.sentAt = ev.at
	done.diff = dec.Difficulty
	done.at = ev.at + 4*net.OneWay + net.IssueTime + net.VerifyTime + solveTime
	if w.solver != nil {
		sol, _, err := w.solver.Solve(context.Background(), dec.Challenge)
		if err != nil {
			o.decideErrors++
			return
		}
		done.verify = true
		done.sol = sol
	}
	w.schedule(eng.tickOf(done.at, t), done)
}

// complete runs steps 6–7: the solution lands at the server at simulated
// time ev.at and the client is (or is not) served.
func (w *worker) complete(t int, ev event) {
	eng := w.eng
	fw := eng.nodes[ev.node].fw
	o := w.out[ev.pop][ev.phase]
	latency := ev.at - ev.sentAt
	if ev.verify {
		if err := fw.Verify(ev.sol, ev.ip); err != nil {
			if errors.Is(err, puzzle.ErrExpired) {
				o.expired++
			} else {
				o.rejected++
			}
			return
		}
	} else if latency > eng.ttl {
		// Modeled verification applies the same clock rule the real
		// verifier would: a solve that outlived the challenge TTL is not
		// redeemable. (Conservative: latency includes network crossings.)
		o.expired++
		if ev.diff >= puzzle.MinDifficulty {
			w.mExpired[ev.node]++
			fw.RecordVerifyEvidence(ev.ip, 0, false)
		}
		return
	}
	o.served++
	o.latency.ObserveDuration(latency)
	// A served modeled completion is a solved-and-verified challenge;
	// record it for the feedback signal plane (bypassed completions carry
	// no difficulty and are not verifications), and feed it into the
	// tracker's evidence state exactly as a real Verify call would — the
	// redemption path runs on the same solve-credit stream either way.
	if !ev.verify && ev.diff >= puzzle.MinDifficulty {
		w.mVerified[ev.node][ev.diff]++
		fw.RecordVerifyEvidence(ev.ip, ev.diff, true)
	}
	// The cross-node replay attacker: the solution just redeemed here is
	// resubmitted verbatim to the next fleet node after enough gossip
	// rounds for the redeemed tag to have crossed the whole topology. The
	// fleet filter must fail it closed (counted rejected above); a second
	// service would show up as served > requests — an invariant every
	// replay scenario pins with served_frac ≤ 1.
	if ev.verify && !ev.replay && eng.sc.Populations[ev.pop].Behavior == BehaviorReplayCross {
		rep := ev
		rep.replay = true
		rep.node = (ev.node + 1) % len(eng.nodes)
		ticks := eng.clusterDiameter()*eng.sc.Cluster.exchangeTicks() + 2
		rep.at = ev.at + time.Duration(ticks)*eng.tick
		w.schedule(eng.tickOf(rep.at, t), rep)
	}
}

// tickOf maps an event time to its tick index, clamped to never schedule
// into the past relative to the currently-running tick.
func (eng *engine) tickOf(at time.Duration, current int) int {
	t := int(at / eng.tick)
	if t < current {
		t = current
	}
	return t
}

// mix derives a stream seed from positional coordinates via splitmix64,
// so every (population, tick) pair gets an independent, order-free PRNG.
func mix(parts ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, p := range parts {
		h ^= p
		h += 0x9E3779B97F4A7C15
		z := h
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		h = z ^ (z >> 31)
	}
	return h
}

// poisson samples a Poisson(lambda) count: Knuth's product method for
// small lambda, a rounded normal approximation beyond (where the product
// method underflows and the approximation error is far below the
// scenario-level noise floor).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		k, prod := 0, rng.Float64()
		for prod > limit {
			k++
			prod *= rng.Float64()
		}
		return k
	}
	n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
	if n < 0 {
		return 0
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
