package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"aipow/internal/metrics"
	"aipow/internal/obs"
)

// DifficultyCount is one row of a sparse difficulty histogram.
type DifficultyCount struct {
	// Difficulty is the assigned puzzle difficulty.
	Difficulty int `json:"d"`

	// Count is how many challenges were issued at it.
	Count uint64 `json:"n"`
}

// OutcomeReport is the JSON export of one (population[, phase]) cell.
type OutcomeReport struct {
	Requests      uint64 `json:"requests"`
	Challenged    uint64 `json:"challenged"`
	Bypassed      uint64 `json:"bypassed,omitempty"`
	Served        uint64 `json:"served"`
	Ignored       uint64 `json:"ignored,omitempty"`
	GaveUp        uint64 `json:"gave_up,omitempty"`
	Expired       uint64 `json:"expired,omitempty"`
	Rejected      uint64 `json:"rejected,omitempty"`
	ScoreErrors   uint64 `json:"score_errors,omitempty"`
	DecideErrors  uint64 `json:"decide_errors,omitempty"`
	SolveAttempts uint64 `json:"solve_attempts"`

	MeanScore      float64 `json:"mean_score"`
	MeanDifficulty float64 `json:"mean_difficulty"`
	ServedFrac     float64 `json:"served_frac"`
	GoodputRPS     float64 `json:"goodput_rps"`
	CostPerServed  float64 `json:"cost_per_served"`

	DifficultyHist []DifficultyCount         `json:"difficulty_hist,omitempty"`
	LatencyMS      metrics.HistogramSnapshot `json:"latency_ms"`
	WorkHashes     metrics.HistogramSnapshot `json:"work_hashes"`
}

// exportOutcome flattens an outcome cell over a scope duration.
func exportOutcome(o *outcome, durS float64) OutcomeReport {
	rep := OutcomeReport{
		Requests:      o.requests,
		Challenged:    o.challenged,
		Bypassed:      o.bypassed,
		Served:        o.served,
		Ignored:       o.ignored,
		GaveUp:        o.gaveUp,
		Expired:       o.expired,
		Rejected:      o.rejected,
		ScoreErrors:   o.scoreErrors,
		DecideErrors:  o.decideErrors,
		SolveAttempts: o.solveAttempts,

		MeanScore:      ratio(o.scoreSum, float64(o.requests)),
		MeanDifficulty: ratio(float64(o.diffSum), float64(o.challenged)),
		ServedFrac:     ratio(float64(o.served), float64(o.requests)),
		GoodputRPS:     ratio(float64(o.served), durS),
		CostPerServed:  o.costPerServed(),

		LatencyMS:  o.latency.Snapshot(),
		WorkHashes: o.work.Snapshot(),
	}
	diffs := make([]int, 0, len(o.diffHist))
	for d := range o.diffHist {
		diffs = append(diffs, d)
	}
	sort.Ints(diffs)
	for _, d := range diffs {
		rep.DifficultyHist = append(rep.DifficultyHist, DifficultyCount{Difficulty: d, Count: o.diffHist[d]})
	}
	return rep
}

// PopulationReport is one population's declaration echo plus its outcome
// aggregated over the whole run.
type PopulationReport struct {
	Name     string  `json:"name"`
	Legit    bool    `json:"legit"`
	Clients  int     `json:"clients"`
	RateRPS  float64 `json:"rate_rps"`
	Behavior string  `json:"behavior"`
	Feed     string  `json:"feed"`
	IPPool   int     `json:"ip_pool"`

	Outcome OutcomeReport `json:"outcome"`
}

// PhaseReport is the per-phase breakdown.
type PhaseReport struct {
	Name      string  `json:"name"`
	DurationS float64 `json:"duration_s"`

	// Populations maps population name → outcome within the phase.
	Populations map[string]OutcomeReport `json:"populations"`
}

// ScenarioReport is one scenario's full machine-readable outcome.
type ScenarioReport struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Seed        uint64  `json:"seed"`
	DurationS   float64 `json:"duration_s"`
	TickMS      float64 `json:"tick_ms"`
	Workers     int     `json:"workers"`

	Defense struct {
		Policy         string   `json:"policy"`
		MaxDifficulty  int      `json:"max_difficulty"`
		SaturationRate float64  `json:"saturation_rate,omitempty"`
		RealSolve      bool     `json:"real_solve,omitempty"`
		AdaptRules     []string `json:"adapt_rules,omitempty"`
	} `json:"defense"`

	// Cluster echoes the fleet shape for K-node scenarios (absent for
	// standalone runs, so pre-fleet reports are byte-identical).
	Cluster *ClusterReport `json:"cluster,omitempty"`

	Populations []PopulationReport `json:"populations"`
	Phases      []PhaseReport      `json:"phases,omitempty"`

	// Adapt reports the feedback controller's level transitions and swap
	// counts (present only for adaptive scenarios).
	Adapt *AdaptOutcome `json:"adapt,omitempty"`

	// Events mirrors the run's defense event log (present only when the
	// scenario declares an event_* invariant), so CI can diff exact
	// defense event sequences — escalate → hold → de-escalate, with the
	// signal readings that tripped each transition.
	Events []obs.Event `json:"events,omitempty"`

	// Framework snapshots the framework's own counters — an independent
	// cross-check of the engine's accounting.
	Framework map[string]float64 `json:"framework_counters"`

	Invariants []InvariantResult `json:"invariants"`
	Pass       bool              `json:"pass"`
}

// ClusterReport echoes a scenario's fleet configuration.
type ClusterReport struct {
	Nodes         int  `json:"nodes"`
	ExchangeTicks int  `json:"exchange_ticks"`
	Degree        int  `json:"degree"`
	FleetFeedback bool `json:"fleet_feedback"`
}

// Report reports the result as the canonical ScenarioReport.
func (r *Result) Report() ScenarioReport {
	sc := r.Scenario
	durS := sc.Duration().Seconds()
	rep := ScenarioReport{
		Name:        sc.Name,
		Description: sc.Description,
		Seed:        sc.Seed,
		DurationS:   durS,
		TickMS:      float64(sc.Tick.Milliseconds()),
		Workers:     sc.Workers,
		Framework:   r.FrameworkStats,
	}
	ps := r.Pipeline
	rep.Defense.Policy = ps.Policy
	rep.Defense.MaxDifficulty = ps.MaxDifficulty
	rep.Defense.SaturationRate = saturationRate(ps.Scorer)
	rep.Defense.RealSolve = sc.RealSolve
	if ps.Adapt != nil {
		rep.Defense.AdaptRules = ps.Adapt.Rules
	}
	if cs := sc.Cluster; cs != nil {
		rep.Cluster = &ClusterReport{
			Nodes:         cs.Nodes,
			ExchangeTicks: cs.exchangeTicks(),
			Degree:        cs.degree(),
			// Controllers sum the fleet's counters exactly when the
			// spec both clusters the nodes and declares an adapt section.
			FleetFeedback: ps.Cluster != nil && ps.Adapt != nil,
		}
	}
	rep.Adapt = r.Adapt
	rep.Events = r.Events

	for pi, p := range sc.Populations {
		total := newOutcome()
		for phi := range sc.Phases {
			total.merge(r.Outcomes[pi][phi])
		}
		rep.Populations = append(rep.Populations, PopulationReport{
			Name:     p.Name,
			Legit:    p.Legit,
			Clients:  p.Clients,
			RateRPS:  p.Rate,
			Behavior: p.Behavior.String(),
			Feed:     p.Feed.String(),
			IPPool:   p.poolSize(),
			Outcome:  exportOutcome(total, durS),
		})
	}
	if len(sc.Phases) > 1 {
		for phi, ph := range sc.Phases {
			phr := PhaseReport{
				Name:        ph.Name,
				DurationS:   ph.Duration.Seconds(),
				Populations: make(map[string]OutcomeReport, len(sc.Populations)),
			}
			for pi, p := range sc.Populations {
				phr.Populations[p.Name] = exportOutcome(r.Outcomes[pi][phi], ph.Duration.Seconds())
			}
			rep.Phases = append(rep.Phases, phr)
		}
	}
	rep.Invariants, rep.Pass = r.Evaluate()
	return rep
}

// SuiteReport is the top-level SIM_scenarios.json document, schema-parallel
// to BENCH_hotpath.json: generated_by, environment echo, then the payload.
type SuiteReport struct {
	GeneratedBy string           `json:"generated_by"`
	Suite       string           `json:"suite"`
	Seed        uint64           `json:"seed"`
	Scenarios   []ScenarioReport `json:"scenarios"`
	Pass        bool             `json:"pass"`
}

// RunSuite executes every scenario in order and assembles the suite
// report. Scenario construction or execution errors abort the run; a
// failed invariant does not — it is recorded and flips Pass, so callers
// (the CLI, the CI gate) decide how loudly to fail.
func RunSuite(name string, seed uint64, scenarios []Scenario) (*SuiteReport, error) {
	rep := &SuiteReport{GeneratedBy: "cmd/attacksim", Suite: name, Seed: seed, Pass: true}
	for _, sc := range scenarios {
		res, err := Run(sc)
		if err != nil {
			return nil, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
		sr := res.Report()
		rep.Scenarios = append(rep.Scenarios, sr)
		rep.Pass = rep.Pass && sr.Pass
	}
	return rep, nil
}

// MarshalJSON is the canonical serialization: indented, trailing newline,
// deterministic (struct field order plus sorted map keys), so equal seeds
// produce byte-identical files.
func (r *SuiteReport) Marshal() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// RenderTable writes the human-readable per-scenario summary.
func (sr ScenarioReport) RenderTable(w io.Writer) error {
	t := metrics.NewTable(
		fmt.Sprintf("scenario %s (%gs, seed %d) — %s", sr.Name, sr.DurationS, sr.Seed, sr.Description),
		"population", "class", "requests", "served", "served_frac",
		"mean_diff", "mean_score", "p99_ms", "cost/served")
	for _, p := range sr.Populations {
		class := "attack"
		if p.Legit {
			class = "legit"
		}
		t.AddRow(p.Name, class, p.Outcome.Requests, p.Outcome.Served,
			p.Outcome.ServedFrac, p.Outcome.MeanDifficulty, p.Outcome.MeanScore,
			p.Outcome.LatencyMS.P99, p.Outcome.CostPerServed)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, inv := range sr.Invariants {
		status := "PASS"
		if !inv.Pass {
			status = "FAIL"
		}
		bounds := ""
		if inv.Min != nil {
			bounds += fmt.Sprintf(" min=%g", *inv.Min)
		}
		if inv.Max != nil {
			bounds += fmt.Sprintf(" max=%g", *inv.Max)
		}
		if _, err := fmt.Fprintf(w, "  [%s] %-40s value=%.4g%s\n", status, inv.Name, inv.Value, bounds); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
