package policy

import (
	"math"
	"testing"
)

func TestConfidenceShapedFullConfidenceMatchesInner(t *testing.T) {
	inner := Policy2()
	p, err := NewConfidenceShaped(inner, DefaultShapeAnchor, DefaultShapeFloor)
	if err != nil {
		t.Fatal(err)
	}
	for score := 0.0; score <= 10; score += 0.5 {
		if got, want := p.ConfidentDifficulty(score, 1), inner.Difficulty(score); got != want {
			t.Errorf("ConfidentDifficulty(%v, 1) = %d, want inner %d", score, got, want)
		}
		if got, want := p.Difficulty(score), inner.Difficulty(score); got != want {
			t.Errorf("Difficulty(%v) = %d, want inner %d", score, got, want)
		}
	}
}

func TestConfidenceShapedShadesAboveAnchorOnly(t *testing.T) {
	p, err := NewConfidenceShaped(Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero floor, zero confidence: scores above the anchor collapse to it.
	if got, want := p.ConfidentDifficulty(9, 0), Policy2().Difficulty(5); got != want {
		t.Errorf("shaded difficulty = %d, want anchor difficulty %d", got, want)
	}
	// At or below the anchor, confidence is irrelevant.
	for _, score := range []float64{0, 2.5, 5} {
		if got, want := p.ConfidentDifficulty(score, 0), Policy2().Difficulty(score); got != want {
			t.Errorf("ConfidentDifficulty(%v, 0) = %d, want unshaded %d", score, got, want)
		}
	}
}

func TestConfidenceShapedFloorBoundsShading(t *testing.T) {
	p, err := NewConfidenceShaped(Policy2(), 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Zero confidence at the top of the scale: effective = 5 + 0.5·5 = 7.5,
	// difficulty 13 under Policy 2 — a 2.5-level shade, Policy 3's ε.
	if got, want := p.ConfidentDifficulty(10, 0), Policy2().Difficulty(7.5); got != want {
		t.Errorf("floored shading = %d, want %d", got, want)
	}
	// Shading is monotone in confidence.
	prev := -1
	for conf := 0.0; conf <= 1; conf += 0.25 {
		d := p.ConfidentDifficulty(10, conf)
		if d < prev {
			t.Errorf("difficulty decreased with rising confidence: %d after %d", d, prev)
		}
		prev = d
	}
}

func TestConfidenceShapedClampsBadConfidence(t *testing.T) {
	p, err := NewConfidenceShaped(Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := Policy2().Difficulty(9)
	// NaN and out-of-range confidences must not weaken the defense.
	if got := p.ConfidentDifficulty(9, math.NaN()); got != full {
		t.Errorf("NaN confidence = %d, want full %d", got, full)
	}
	if got := p.ConfidentDifficulty(9, 7); got != full {
		t.Errorf("confidence>1 = %d, want full %d", got, full)
	}
	if got, want := p.ConfidentDifficulty(9, -3), p.ConfidentDifficulty(9, 0); got != want {
		t.Errorf("negative confidence = %d, want clamped-to-zero %d", got, want)
	}
}

func TestConfidenceShapedValidation(t *testing.T) {
	if _, err := NewConfidenceShaped(nil, 5, 0.5); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewConfidenceShaped(Policy2(), -1, 0.5); err == nil {
		t.Error("anchor below MinScore accepted")
	}
	if _, err := NewConfidenceShaped(Policy2(), 11, 0.5); err == nil {
		t.Error("anchor above MaxScore accepted")
	}
	if _, err := NewConfidenceShaped(Policy2(), 5, 1.5); err == nil {
		t.Error("floor above 1 accepted")
	}
	if _, err := NewConfidenceShaped(Policy2(), 5, math.NaN()); err == nil {
		t.Error("NaN floor accepted")
	}
}

// TestWrappersForwardConfidence pins that the registry's mandatory clamp
// and the load-adaptive wrapper both pass confidence through to a shaped
// inner policy.
func TestWrappersForwardConfidence(t *testing.T) {
	shaped, err := NewConfidenceShaped(Policy2(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := NewClamp(shaped, 1, 22)
	if err != nil {
		t.Fatal(err)
	}
	la, err := NewLoadAdaptive(clamped, func() float64 { return 0 }, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := shaped.ConfidentDifficulty(9, 0.25)
	if got := Confident(clamped, 9, 0.25); got != want {
		t.Errorf("clamp forwarded = %d, want %d", got, want)
	}
	if got := Confident(la, 9, 0.25); got != want {
		t.Errorf("load-adaptive forwarded = %d, want %d", got, want)
	}
	// And Confident on a plain policy just scores.
	if got, want := Confident(Policy2(), 9, 0.25), Policy2().Difficulty(9); got != want {
		t.Errorf("plain policy = %d, want %d", got, want)
	}
}

func TestConsumesConfidence(t *testing.T) {
	shaped, _ := NewConfidenceShaped(Policy2(), 5, 0.5)
	clamped, _ := NewClamp(shaped, 1, 22)
	la, _ := NewLoadAdaptive(clamped, func() float64 { return 0 }, 4)
	plainClamp, _ := NewClamp(Policy2(), 1, 22)
	cases := []struct {
		name string
		p    Policy
		want bool
	}{
		{"plain policy2", Policy2(), false},
		{"shaped", shaped, true},
		{"clamp(shaped)", clamped, true},
		{"load(clamp(shaped))", la, true},
		{"clamp(plain)", plainClamp, false},
	}
	for _, tc := range cases {
		if got := ConsumesConfidence(tc.p); got != tc.want {
			t.Errorf("%s: ConsumesConfidence = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRegistryShapeSpec(t *testing.T) {
	p, err := Parse("shape(inner=policy2)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*ConfidenceShaped); !ok {
		t.Fatalf("shape spec compiled to %T", p)
	}
	if p.Name() != "shape(policy2,anchor=5,floor=0.5)" {
		t.Errorf("Name() = %q, want the default anchor and floor", p.Name())
	}

	p, err = Parse("shape(inner=linear(base=2, slope=1.5), anchor=4, floor=0.25)")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "shape(linear(base=2,slope=1.5),anchor=4,floor=0.25)" {
		t.Errorf("Name() = %q, want anchor 4 and floor 0.25", p.Name())
	}
	cs := p.(*ConfidenceShaped)
	inner, _ := NewLinear(2, 1.5)
	if got, want := cs.ConfidentDifficulty(8, 1), inner.Difficulty(8); got != want {
		t.Errorf("nested inner difficulty = %d, want %d", got, want)
	}

	for _, bad := range []string{
		"shape",                             // missing inner
		"shape()",                           // missing inner
		"shape(anchor=5)",                   // missing inner
		"shape(inner=unknown-policy)",       // unresolvable inner
		"shape(inner=policy2, anchor=junk)", // bad anchor
		"shape(inner=policy2, floor=2)",     // floor out of range
		"shape(inner=policy2, epsilon=1)",   // unknown parameter
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if _, err := Parse("shape(inner=shape(inner=policy2))"); err != nil {
		t.Errorf("nested shape rejected: %v", err)
	}
}
