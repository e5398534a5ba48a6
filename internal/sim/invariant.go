package sim

import (
	"fmt"
	"math"
	"time"

	"aipow/internal/obs"
)

// Class selectors for Invariant.Population: aggregate over every
// population whose Legit flag matches.
const (
	// ClassLegit aggregates all legitimate populations.
	ClassLegit = "legit"

	// ClassAttackers aggregates all attack populations.
	ClassAttackers = "attackers"
)

// Metric names an Invariant can bound. All latency figures are simulated
// end-to-end milliseconds; work is modeled hash evaluations.
const (
	// MetricLatencyMean/P50/P90/P99 are served-request latency statistics.
	MetricLatencyMean = "latency_mean_ms"
	MetricLatencyP50  = "latency_p50_ms"
	MetricLatencyP90  = "latency_p90_ms"
	MetricLatencyP99  = "latency_p99_ms"

	// MetricServedFrac is served/requests — the goodput-preservation
	// figure (1 − served_frac is the goodput drop).
	MetricServedFrac = "served_frac"

	// MetricGoodput is served requests per simulated second of the scope.
	MetricGoodput = "goodput_rps"

	// MetricMeanDifficulty is the challenge-weighted mean difficulty.
	MetricMeanDifficulty = "mean_difficulty"

	// MetricMeanScore is the decision-weighted mean reputation score.
	MetricMeanScore = "mean_score"

	// MetricCostPerServed is solve work per served request (hashes).
	MetricCostPerServed = "cost_per_served"

	// MetricCostP50 is the median modeled solve cost per request (hashes)
	// — what the *typical* member of the scope pays, insulated from the
	// scorer's false-positive tail the way a mean is not.
	MetricCostP50 = "cost_p50"

	// MetricWorkRatio is the economic-asymmetry headline: the attackers'
	// cost_per_served divided by the legitimate populations'. Population
	// must be empty; Phase still scopes it.
	MetricWorkRatio = "work_ratio"

	// MetricWorkRatioP50 is the median-cost asymmetry: the attackers'
	// median per-request cost over the legitimate populations'. Because a
	// median ignores tail mass, this captures the typical-vs-typical
	// asymmetry even when ~15% scorer false positives dominate the
	// legitimate mean. Population must be empty; Phase still scopes it.
	MetricWorkRatioP50 = "work_ratio_p50"

	// MetricServed, MetricRequests, MetricSolveAttempts, MetricGaveUp,
	// MetricExpired, MetricRejected and MetricDecideErrors expose raw
	// counts. Rejected counts real-verify refusals other than expiry —
	// forged tags, wrong backends, replays — the figure cross-backend
	// replay scenarios pin above zero.
	MetricServed        = "served"
	MetricRequests      = "requests"
	MetricSolveAttempts = "solve_attempts"
	MetricGaveUp        = "gave_up"
	MetricExpired       = "expired"
	MetricRejected      = "rejected"
	MetricDecideErrors  = "decide_errors"

	// Adaptive-controller metrics, defined only for scenarios whose spec
	// has an adapt section; Population and Phase must be empty (the
	// controller is scenario-wide). The MS figures are offsets from
	// scenario start, 0 meaning "never" — bound them from both sides to pin
	// both that a transition happened and when.
	MetricAdaptSwaps               = "adapt_swaps"
	MetricAdaptMaxLevel            = "adapt_max_level"
	MetricAdaptFinalLevel          = "adapt_final_level"
	MetricAdaptFirstEscalationMS   = "adapt_first_escalation_ms"
	MetricAdaptFirstDeescalationMS = "adapt_first_deescalation_ms"

	// Defense-event-log metrics: declaring one makes the run capture the
	// defense event log into its report. Population and Phase must be
	// empty (the log is run-wide). MetricEventCount is the number of
	// captured events; MetricEventSequenceOK is 1 when the log is
	// structurally consistent — per-node sequence numbers strictly
	// increase, timestamps never run backward, and every adapt transition
	// chains From the level the previous one left the node at — and 0
	// otherwise, so a scenario can pin an exact event sequence with count +
	// sequence bounds.
	MetricEventCount      = "event_count"
	MetricEventSequenceOK = "event_sequence_ok"
)

// adaptMetrics marks the controller-scoped metric names.
var adaptMetrics = map[string]bool{
	MetricAdaptSwaps: true, MetricAdaptMaxLevel: true, MetricAdaptFinalLevel: true,
	MetricAdaptFirstEscalationMS: true, MetricAdaptFirstDeescalationMS: true,
}

// eventMetrics marks the event-log-scoped metric names.
var eventMetrics = map[string]bool{
	MetricEventCount: true, MetricEventSequenceOK: true,
}

// validMetrics guards scenario validation against typos.
var validMetrics = map[string]bool{
	MetricLatencyMean: true, MetricLatencyP50: true, MetricLatencyP90: true,
	MetricLatencyP99: true, MetricServedFrac: true, MetricGoodput: true,
	MetricMeanDifficulty: true, MetricMeanScore: true, MetricCostPerServed: true,
	MetricCostP50: true, MetricWorkRatio: true, MetricWorkRatioP50: true,
	MetricServed: true, MetricRequests: true, MetricSolveAttempts: true,
	MetricGaveUp: true, MetricExpired: true, MetricRejected: true,
	MetricDecideErrors: true,
	MetricAdaptSwaps:   true, MetricAdaptMaxLevel: true, MetricAdaptFinalLevel: true,
	MetricAdaptFirstEscalationMS: true, MetricAdaptFirstDeescalationMS: true,
	MetricEventCount: true, MetricEventSequenceOK: true,
}

// Invariant is one declarative bound a scenario's outcome must satisfy —
// the unit the CI gate fails on.
type Invariant struct {
	// Name labels the invariant in reports (defaults to a generated
	// metric/scope string).
	Name string `json:"name"`

	// Metric is one of the Metric* constants.
	Metric string `json:"metric"`

	// Population scopes the metric: a population name, ClassLegit,
	// ClassAttackers, or empty for scenario-wide (required empty for
	// MetricWorkRatio).
	Population string `json:"population,omitempty"`

	// Phase scopes the metric to one named phase; empty covers the whole
	// run.
	Phase string `json:"phase,omitempty"`

	// Min and Max bound the metric inclusively; nil leaves a side open.
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// AtLeast declares metric ≥ bound over the given scope.
func AtLeast(metric, population, phase string, bound float64) Invariant {
	return Invariant{Metric: metric, Population: population, Phase: phase, Min: &bound}
}

// AtMost declares metric ≤ bound over the given scope.
func AtMost(metric, population, phase string, bound float64) Invariant {
	return Invariant{Metric: metric, Population: population, Phase: phase, Max: &bound}
}

// label renders the invariant's display name.
func (inv Invariant) label() string {
	if inv.Name != "" {
		return inv.Name
	}
	scope := inv.Population
	if inv.Phase != "" {
		if scope != "" {
			scope += "/"
		}
		scope += inv.Phase
	}
	if scope == "" {
		return inv.Metric
	}
	return fmt.Sprintf("%s(%s)", inv.Metric, scope)
}

// validate rejects malformed invariants at scenario-validation time;
// adaptive reports whether the spec declares an adapt section.
func (inv Invariant) validate(sc Scenario, adaptive bool) error {
	if !validMetrics[inv.Metric] {
		return fmt.Errorf("unknown metric %q", inv.Metric)
	}
	if inv.Min == nil && inv.Max == nil {
		return fmt.Errorf("invariant %q has no bound", inv.label())
	}
	if (inv.Metric == MetricWorkRatio || inv.Metric == MetricWorkRatioP50) && inv.Population != "" {
		return fmt.Errorf("%s aggregates both classes; population must be empty", inv.Metric)
	}
	if adaptMetrics[inv.Metric] {
		if inv.Population != "" || inv.Phase != "" {
			return fmt.Errorf("%s is controller-wide; population and phase must be empty", inv.Metric)
		}
		if !adaptive {
			return fmt.Errorf("%s requires an adapt section in the spec", inv.Metric)
		}
	}
	if eventMetrics[inv.Metric] && (inv.Population != "" || inv.Phase != "") {
		return fmt.Errorf("%s is run-wide; population and phase must be empty", inv.Metric)
	}
	if inv.Population != "" && inv.Population != ClassLegit && inv.Population != ClassAttackers {
		found := false
		for _, p := range sc.Populations {
			if p.Name == inv.Population {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("invariant %q references unknown population %q", inv.label(), inv.Population)
		}
	}
	if inv.Phase != "" {
		found := false
		for _, ph := range sc.Phases {
			if ph.Name == inv.Phase {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("invariant %q references unknown phase %q", inv.label(), inv.Phase)
		}
	}
	return nil
}

// InvariantResult is one evaluated invariant.
type InvariantResult struct {
	Invariant
	// Value is the measured metric.
	Value float64 `json:"value"`

	// Pass reports whether Value sits inside [Min, Max].
	Pass bool `json:"pass"`
}

// scope merges the outcome cells the invariant covers and reports the
// scope's simulated duration (for rate metrics).
func (r *Result) scope(population, phase string) (*outcome, time.Duration) {
	merged := newOutcome()
	var dur time.Duration
	for phi, ph := range r.Scenario.Phases {
		if phase != "" && ph.Name != phase {
			continue
		}
		dur += ph.Duration
		for pi, p := range r.Scenario.Populations {
			switch population {
			case "":
			case ClassLegit:
				if !p.Legit {
					continue
				}
			case ClassAttackers:
				if p.Legit {
					continue
				}
			default:
				if p.Name != population {
					continue
				}
			}
			merged.merge(r.Outcomes[pi][phi])
		}
	}
	return merged, dur
}

// ratio returns a/b, or 0 when undefined — metrics must stay NaN-free so
// reports marshal and comparisons stay meaningful.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// costPerServed reports o's solve work per served request.
func (o *outcome) costPerServed() float64 {
	return ratio(float64(o.solveAttempts), float64(o.served))
}

// costP50 reports o's median per-request solve cost (hashes), 0 when the
// scope never solved.
func (o *outcome) costP50() float64 {
	if o.work.Count() == 0 {
		return 0
	}
	return o.work.Quantile(0.5)
}

// metricValue computes one metric over the invariant's scope.
func (r *Result) metricValue(inv Invariant) float64 {
	if adaptMetrics[inv.Metric] {
		a := r.Adapt
		if a == nil {
			return 0
		}
		switch inv.Metric {
		case MetricAdaptSwaps:
			return float64(a.Swaps)
		case MetricAdaptMaxLevel:
			return float64(a.MaxLevel)
		case MetricAdaptFinalLevel:
			return float64(a.FinalLevel)
		case MetricAdaptFirstEscalationMS:
			return a.FirstEscalationMS
		case MetricAdaptFirstDeescalationMS:
			return a.FirstDeescalationMS
		}
	}
	if eventMetrics[inv.Metric] {
		switch inv.Metric {
		case MetricEventCount:
			return float64(len(r.Events))
		case MetricEventSequenceOK:
			if eventSequenceOK(r.Events) {
				return 1
			}
			return 0
		}
	}
	switch inv.Metric {
	case MetricWorkRatio:
		att, _ := r.scope(ClassAttackers, inv.Phase)
		leg, _ := r.scope(ClassLegit, inv.Phase)
		return ratio(att.costPerServed(), leg.costPerServed())
	case MetricWorkRatioP50:
		att, _ := r.scope(ClassAttackers, inv.Phase)
		leg, _ := r.scope(ClassLegit, inv.Phase)
		return ratio(att.costP50(), leg.costP50())
	}
	o, dur := r.scope(inv.Population, inv.Phase)
	switch inv.Metric {
	case MetricLatencyMean:
		return o.latency.Snapshot().Mean
	case MetricLatencyP50:
		return quantileOrZero(o, 0.50)
	case MetricLatencyP90:
		return quantileOrZero(o, 0.90)
	case MetricLatencyP99:
		return quantileOrZero(o, 0.99)
	case MetricServedFrac:
		return ratio(float64(o.served), float64(o.requests))
	case MetricGoodput:
		return ratio(float64(o.served), dur.Seconds())
	case MetricMeanDifficulty:
		return ratio(float64(o.diffSum), float64(o.challenged))
	case MetricMeanScore:
		return ratio(o.scoreSum, float64(o.requests))
	case MetricCostPerServed:
		return o.costPerServed()
	case MetricCostP50:
		return o.costP50()
	case MetricServed:
		return float64(o.served)
	case MetricRequests:
		return float64(o.requests)
	case MetricSolveAttempts:
		return float64(o.solveAttempts)
	case MetricGaveUp:
		return float64(o.gaveUp)
	case MetricExpired:
		return float64(o.expired)
	case MetricRejected:
		return float64(o.rejected)
	case MetricDecideErrors:
		return float64(o.decideErrors)
	}
	return math.NaN() // unreachable: validate() rejects unknown metrics
}

// Evaluate scores every declared invariant against the result. The second
// return is true only when all pass.
func (r *Result) Evaluate() ([]InvariantResult, bool) {
	out := make([]InvariantResult, 0, len(r.Scenario.Invariants))
	all := true
	for _, inv := range r.Scenario.Invariants {
		v := r.metricValue(inv)
		pass := !math.IsNaN(v)
		if inv.Min != nil && v < *inv.Min {
			pass = false
		}
		if inv.Max != nil && v > *inv.Max {
			pass = false
		}
		if inv.Name == "" {
			inv.Name = inv.label()
		}
		out = append(out, InvariantResult{Invariant: inv, Value: v, Pass: pass})
		all = all && pass
	}
	return out, all
}

// eventSequenceOK checks the merged defense event log's structural
// consistency: per-node sequence numbers strictly increase, timestamps
// never run backward across the merged stream, and each node's adapt
// transitions chain — every escalate/de-escalate departs From the level
// the previous transition arrived To (starting at base level 0), moving
// in the direction its kind names. An empty log is vacuously consistent;
// pair the metric with an event_count bound to pin that events happened.
func eventSequenceOK(events []obs.Event) bool {
	lastSeq := make(map[string]uint64)
	level := make(map[string]int)
	var lastAt time.Time
	for i, e := range events {
		if i > 0 && e.At.Before(lastAt) {
			return false
		}
		lastAt = e.At
		if s, seen := lastSeq[e.Node]; seen && e.Seq <= s {
			return false
		}
		lastSeq[e.Node] = e.Seq
		switch e.Kind {
		case obs.EventAdaptEscalate:
			if e.From != level[e.Node] || e.To <= e.From {
				return false
			}
			level[e.Node] = e.To
		case obs.EventAdaptDeescalate:
			if e.From != level[e.Node] || e.To >= e.From {
				return false
			}
			level[e.Node] = e.To
		}
	}
	return true
}

// quantileOrZero is Histogram.Quantile with the empty case pinned to 0.
func quantileOrZero(o *outcome, q float64) float64 {
	if o.latency.Count() == 0 {
		return 0
	}
	return o.latency.Quantile(q)
}
