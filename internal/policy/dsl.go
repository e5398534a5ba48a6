package policy

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// RulePolicy is a first-match-wins rule list compiled from the policy DSL.
// A threshold table is its rules in descending order ("when score >= 8
// use 14", then ">= 5", …), and each rule may use any comparison
// operator, so administrators can carve out exemption bands ("when score
// < 2 use 1") as well as escalation tiers.
type RulePolicy struct {
	name    string
	rules   []dslRule
	defawlt int
}

// dslRule is one compiled "when score OP THRESHOLD use DIFFICULTY" line.
type dslRule struct {
	op         string
	threshold  float64
	difficulty int
}

var _ Policy = (*RulePolicy)(nil)

// ParseRules compiles a policy program. The grammar, one statement per
// line:
//
//	# comment                       (also: blank lines)
//	name <identifier>               (optional; names the policy)
//	when score <op> <num> use <d>   (op ∈ {<, <=, >, >=, ==}; first match wins)
//	default <d>                     (required; used when no rule matches)
//
// Example:
//
//	name edge-tiers
//	when score >= 8 use 14
//	when score >= 5 use 8
//	when score < 2 use 1
//	default 3
func ParseRules(src string) (*RulePolicy, error) {
	p := &RulePolicy{name: "rules", defawlt: -1}
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, fmt.Errorf("policy dsl line %d: want 'name <identifier>'", lineNo)
			}
			p.name = fields[1]
		case "default":
			if p.defawlt != -1 {
				return nil, fmt.Errorf("policy dsl line %d: duplicate default", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("policy dsl line %d: want 'default <difficulty>'", lineNo)
			}
			d, err := parseDifficulty(fields[1])
			if err != nil {
				return nil, fmt.Errorf("policy dsl line %d: %w", lineNo, err)
			}
			p.defawlt = d
		case "when":
			r, err := parseWhen(fields)
			if err != nil {
				return nil, fmt.Errorf("policy dsl line %d: %w", lineNo, err)
			}
			p.rules = append(p.rules, r)
		default:
			return nil, fmt.Errorf("policy dsl line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("policy dsl: read program: %w", err)
	}
	if p.defawlt == -1 {
		return nil, fmt.Errorf("policy dsl: missing required 'default' statement")
	}
	return p, nil
}

// parseWhen compiles "when score <op> <num> use <d>".
func parseWhen(fields []string) (dslRule, error) {
	if len(fields) != 6 || fields[1] != "score" || fields[4] != "use" {
		return dslRule{}, fmt.Errorf("want 'when score <op> <num> use <difficulty>', got %q",
			strings.Join(fields, " "))
	}
	op := fields[2]
	switch op {
	case "<", "<=", ">", ">=", "==":
	default:
		return dslRule{}, fmt.Errorf("unknown operator %q", op)
	}
	threshold, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return dslRule{}, fmt.Errorf("bad threshold %q: %w", fields[3], err)
	}
	d, err := parseDifficulty(fields[5])
	if err != nil {
		return dslRule{}, err
	}
	return dslRule{op: op, threshold: threshold, difficulty: d}, nil
}

// parseDifficulty parses and range-checks a difficulty literal.
func parseDifficulty(s string) (int, error) {
	d, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad difficulty %q: %w", s, err)
	}
	if d != clampDifficulty(d) {
		return 0, fmt.Errorf("difficulty %d outside protocol range", d)
	}
	return d, nil
}

// Name implements Policy.
func (p *RulePolicy) Name() string { return p.name }

// Difficulty implements Policy: first matching rule wins, else the default.
func (p *RulePolicy) Difficulty(score float64) int {
	s := clampScore(score)
	for _, r := range p.rules {
		if r.matches(s) {
			return clampDifficulty(r.difficulty)
		}
	}
	return clampDifficulty(p.defawlt)
}

func (r dslRule) matches(s float64) bool {
	switch r.op {
	case "<":
		return s < r.threshold
	case "<=":
		return s <= r.threshold
	case ">":
		return s > r.threshold
	case ">=":
		return s >= r.threshold
	case "==":
		return s == r.threshold
	default:
		return false
	}
}
