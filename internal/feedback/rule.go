package feedback

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"aipow/internal/policy"
)

// DefaultHold is a rule's de-escalation hysteresis when hold is omitted:
// the condition must stay false this long before the controller steps back
// down past the rule's level.
const DefaultHold = 30 * time.Second

// Condition is one "signal op threshold" comparison, e.g.
// "verify_fail_rate>0.3".
type Condition struct {
	Signal    string
	Op        string // one of ">", ">=", "<", "<="
	Threshold float64
}

// ParseCondition compiles a condition expression. The signal name must be
// one of the package's Signal* constants.
func ParseCondition(expr string) (Condition, error) {
	expr = strings.TrimSpace(expr)
	for _, op := range []string{">=", "<=", ">", "<"} {
		idx := strings.Index(expr, op)
		if idx < 0 {
			continue
		}
		c := Condition{
			Signal: strings.TrimSpace(expr[:idx]),
			Op:     op,
		}
		raw := strings.TrimSpace(expr[idx+len(op):])
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Condition{}, fmt.Errorf("feedback: condition %q: bad threshold %q", expr, raw)
		}
		c.Threshold = v
		if !KnownSignal(c.Signal) {
			return Condition{}, fmt.Errorf("feedback: condition %q: unknown signal %q (known: %s)",
				expr, c.Signal, strings.Join(SignalNames(), ", "))
		}
		return c, nil
	}
	return Condition{}, fmt.Errorf("feedback: condition %q: want '<signal><op><value>' with op in >, >=, <, <=", expr)
}

// Eval reports whether the condition holds for the given signals.
func (c Condition) Eval(sig Signals) bool {
	v, ok := sig.Value(c.Signal)
	if !ok {
		return false
	}
	switch c.Op {
	case ">":
		return v > c.Threshold
	case ">=":
		return v >= c.Threshold
	case "<":
		return v < c.Threshold
	case "<=":
		return v <= c.Threshold
	}
	return false
}

// String renders the condition in its parseable form.
func (c Condition) String() string {
	return fmt.Sprintf("%s%s%v", c.Signal, c.Op, c.Threshold)
}

// Rule is one rung of a controller's escalation ladder, compiled from an
// escalate(...) spec. Rules are ordered: rule i guards level i+1, and the
// controller always sits at the highest level whose rule currently
// demands it.
type Rule struct {
	// When is the trigger: the rule demands its level while When holds
	// (and Unless does not).
	When Condition

	// Unless, when set, gates the rule: while it holds the rule is
	// treated as not demanding its level — the false-positive softener
	// ("unless=hard_solve_frac>0.5").
	Unless *Condition

	// Policy is the component spec of the policy installed at this level,
	// e.g. "policy2" or "fixed(difficulty=16)". Resolved by the
	// controller's Compile hook.
	Policy string

	// Hold is the de-escalation hysteresis: the rule's condition must
	// have been false for Hold before the controller steps back down past
	// this level (default DefaultHold). Re-triggering resets the timer,
	// which is what keeps a pulsing attacker from flapping the policy.
	Hold time.Duration

	// After is how many consecutive steps the condition must hold before
	// the rule escalates (default 1) — the onset debounce.
	After int
}

// ParseRule compiles one escalation rule in the shared component-spec
// syntax:
//
//	escalate(when=<cond>, policy=<spec>[, hold=<dur>][, after=<n>][, unless=<cond>])
//
// Conditions are "<signal><op><value>" (op ∈ {>, >=, <, <=}); the policy
// value may itself be a parameterized component spec, nested parentheses
// included.
func ParseRule(spec string) (Rule, error) {
	name, params, err := policy.ParseSpecParams(spec)
	if err != nil {
		return Rule{}, fmt.Errorf("feedback: rule %q: %w", spec, err)
	}
	if name != "escalate" {
		return Rule{}, fmt.Errorf("feedback: rule %q: unknown statement %q (want escalate)", spec, name)
	}
	r := Rule{Hold: DefaultHold, After: 1}
	var when, unless string
	if err := policy.DecodeParams(params,
		policy.Field{Name: "when", Dst: &when},
		policy.Field{Name: "policy", Dst: &r.Policy},
		policy.Field{Name: "hold", Dst: &r.Hold},
		policy.Field{Name: "after", Dst: &r.After, Min: 1},
		policy.Field{Name: "unless", Dst: &unless},
	); err != nil {
		return Rule{}, fmt.Errorf("feedback: rule %q: %w", spec, err)
	}
	if when == "" {
		return Rule{}, fmt.Errorf("feedback: rule %q: missing when=<condition>", spec)
	}
	if r.When, err = ParseCondition(when); err != nil {
		return Rule{}, err
	}
	if slices.ContainsFunc(params, func(p policy.Param) bool { return p.Key == "unless" }) {
		c, err := ParseCondition(unless)
		if err != nil {
			return Rule{}, err
		}
		r.Unless = &c
	}
	if r.Policy == "" {
		return Rule{}, fmt.Errorf("feedback: rule %q: missing policy=<spec>", spec)
	}
	return r, nil
}

// String renders the rule in its parseable spec form.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "escalate(when=%s, policy=%s, hold=%s", r.When, r.Policy, r.Hold)
	if r.After > 1 {
		fmt.Fprintf(&b, ", after=%d", r.After)
	}
	if r.Unless != nil {
		fmt.Fprintf(&b, ", unless=%s", r.Unless)
	}
	b.WriteString(")")
	return b.String()
}
