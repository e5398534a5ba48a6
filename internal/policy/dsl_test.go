package policy

import (
	"strings"
	"testing"
)

const exampleProgram = `
# Escalation tiers for the edge gateway.
name edge-tiers
when score >= 8 use 14
when score >= 5 use 8
when score < 2 use 1
default 3
`

func TestParseRulesExampleProgram(t *testing.T) {
	p, err := ParseRules(exampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "edge-tiers" {
		t.Errorf("Name() = %q", p.Name())
	}
	tests := []struct {
		score float64
		want  int
	}{
		{9, 14},  // first rule
		{8, 14},  // boundary inclusive
		{6, 8},   // second rule
		{1.5, 1}, // exemption band
		{3, 3},   // default
		{2, 3},   // no rule matches exactly 2
		{10, 14}, // clamped top of scale
		{-4, 1},  // clamps to score 0 -> "< 2" rule
	}
	for _, tt := range tests {
		if got := p.Difficulty(tt.score); got != tt.want {
			t.Errorf("Difficulty(%v) = %d, want %d", tt.score, got, tt.want)
		}
	}
}

func TestParseRulesFirstMatchWins(t *testing.T) {
	p, err := ParseRules("when score >= 2 use 4\nwhen score >= 8 use 20\ndefault 1\n")
	if err != nil {
		t.Fatal(err)
	}
	// A score of 9 matches the first rule (>=2) before the harsher >=8.
	if got := p.Difficulty(9); got != 4 {
		t.Fatalf("Difficulty(9) = %d, want 4 (first match wins)", got)
	}
}

func TestParseRulesEqualityOperator(t *testing.T) {
	p, err := ParseRules("when score == 10 use 30\ndefault 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Difficulty(10); got != 30 {
		t.Errorf("Difficulty(10) = %d, want 30", got)
	}
	if got := p.Difficulty(9.5); got != 2 {
		t.Errorf("Difficulty(9.5) = %d, want 2", got)
	}
}

func TestParseRulesErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		frag string // expected substring of the error
	}{
		{"missing_default", "when score >= 5 use 8\n", "missing required 'default'"},
		{"duplicate_default", "default 1\ndefault 2\n", "duplicate default"},
		{"unknown_statement", "frobnicate 3\ndefault 1\n", "unknown statement"},
		{"bad_operator", "when score <> 5 use 8\ndefault 1\n", "unknown operator"},
		{"bad_threshold", "when score >= abc use 8\ndefault 1\n", "bad threshold"},
		{"bad_difficulty", "when score >= 5 use zap\ndefault 1\n", "bad difficulty"},
		{"difficulty_out_of_range", "when score >= 5 use 100\ndefault 1\n", "outside protocol range"},
		{"malformed_when", "when reputation >= 5 use 8\ndefault 1\n", "want 'when score"},
		{"bad_name", "name\ndefault 1\n", "want 'name"},
		{"bad_default_arity", "default\n", "want 'default"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseRules(tt.src)
			if err == nil {
				t.Fatal("malformed program accepted")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Fatalf("err = %q, want substring %q", err, tt.frag)
			}
		})
	}
}

func TestParseRulesCommentsAndBlank(t *testing.T) {
	p, err := ParseRules("# only a default\n\n   \ndefault 7\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Difficulty(5); got != 7 {
		t.Fatalf("Difficulty(5) = %d, want 7", got)
	}
	if p.Name() != "rules" {
		t.Fatalf("default name = %q, want \"rules\"", p.Name())
	}
}

func TestParseRulesErrorsIncludeLineNumbers(t *testing.T) {
	_, err := ParseRules("default 1\nwhen score >= x use 2\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 reference", err)
	}
}

// A threshold table is a rule program with its tiers in descending order:
// the highest threshold at or below the score wins.
func TestStepTierSelection(t *testing.T) {
	p, err := ParseRules(`
when score >= 8 use 14
when score >= 5 use 8
when score >= 2 use 3
default 1
`)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		score float64
		want  int
	}{
		{0, 1}, {1.99, 1}, {2, 3}, {4.9, 3}, {5, 8}, {7.5, 8}, {8, 14}, {10, 14},
	}
	for _, tt := range tests {
		if got := p.Difficulty(tt.score); got != tt.want {
			t.Errorf("Difficulty(%v) = %d, want %d", tt.score, got, tt.want)
		}
	}
}
