package policy

import "testing"

func TestLoadAdaptiveValidation(t *testing.T) {
	if _, err := NewLoadAdaptive(nil, func() float64 { return 0 }, 4); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewLoadAdaptive(Policy1(), nil, 4); err == nil {
		t.Error("nil load func accepted")
	}
	if _, err := NewLoadAdaptive(Policy1(), func() float64 { return 0 }, -1); err == nil {
		t.Error("negative shift accepted")
	}
}

func TestLoadAdaptiveShifts(t *testing.T) {
	load := 0.0
	a, err := NewLoadAdaptive(Policy1(), func() float64 { return load }, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Difficulty(3); got != 4 { // idle server: inner policy as-is
		t.Errorf("idle Difficulty(3) = %d, want 4", got)
	}
	load = 1.0
	if got := a.Difficulty(3); got != 10 { // saturated: +6
		t.Errorf("saturated Difficulty(3) = %d, want 10", got)
	}
	load = 0.5
	if got := a.Difficulty(3); got != 7 { // half load: +3
		t.Errorf("half-load Difficulty(3) = %d, want 7", got)
	}
}

func TestLoadAdaptiveDefensiveLoadClamp(t *testing.T) {
	for _, load := range []float64{-5, 7} {
		load := load
		a, err := NewLoadAdaptive(Policy1(), func() float64 { return load }, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := a.Difficulty(0)
		if d < 1 || d > 5 {
			t.Errorf("load %v gave difficulty %d outside [1, 5]", load, d)
		}
	}
}

func TestLoadAdaptiveName(t *testing.T) {
	a, err := NewLoadAdaptive(Policy2(), func() float64 { return 0 }, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "adaptive(policy2,+4)" {
		t.Errorf("Name() = %q", a.Name())
	}
}
