package reputation

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// toySamples builds a well-separated 2-D training set: benign near the
// origin, malicious near (10, 10).
func toySamples(n int, seed uint64) []Sample {
	rng := rand.New(rand.NewPCG(seed, 1))
	samples := make([]Sample, 0, 2*n)
	for i := 0; i < n; i++ {
		samples = append(samples, Sample{
			Attrs:     map[string]float64{"x": rng.NormFloat64() * 0.5, "y": rng.NormFloat64() * 0.5},
			Malicious: false,
		})
		samples = append(samples, Sample{
			Attrs:     map[string]float64{"x": 10 + rng.NormFloat64()*0.5, "y": 10 + rng.NormFloat64()*0.5},
			Malicious: true,
		})
	}
	return samples
}

func trainToy(t *testing.T, opts ...TrainOption) *Model {
	t.Helper()
	m, err := Train(toySamples(100, 42), opts...)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	tests := []struct {
		name    string
		samples []Sample
		opts    []TrainOption
		want    error
	}{
		{"empty", nil, nil, ErrNoSamples},
		{"one_class_malicious", []Sample{
			{Attrs: map[string]float64{"x": 1}, Malicious: true},
		}, nil, ErrOneClass},
		{"one_class_benign", []Sample{
			{Attrs: map[string]float64{"x": 1}, Malicious: false},
			{Attrs: map[string]float64{"x": 2}, Malicious: false},
		}, nil, ErrOneClass},
		{"missing_attr", []Sample{
			{Attrs: map[string]float64{"x": 1, "y": 2}, Malicious: true},
			{Attrs: map[string]float64{"x": 1}, Malicious: false},
		}, nil, ErrMissingAttr},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(tt.samples, tt.opts...); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
	if _, err := Train(toySamples(5, 1), WithClusters(0)); err == nil {
		t.Error("zero clusters accepted")
	}
}

func TestModelScoresSeparateClasses(t *testing.T) {
	m := trainToy(t)
	malScore, err := m.Score(map[string]float64{"x": 10, "y": 10})
	if err != nil {
		t.Fatal(err)
	}
	benScore, err := m.Score(map[string]float64{"x": 0, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if malScore < 8 {
		t.Errorf("malicious-core score = %v, want ≥ 8", malScore)
	}
	if benScore > 2 {
		t.Errorf("benign-core score = %v, want ≤ 2", benScore)
	}
	if malScore <= benScore {
		t.Errorf("score ordering inverted: mal %v <= ben %v", malScore, benScore)
	}
}

func TestModelScoreRange(t *testing.T) {
	m := trainToy(t)
	// Points far outside training range must clamp into [0, MaxScore].
	for _, p := range []map[string]float64{
		{"x": -1000, "y": -1000},
		{"x": 1000, "y": 1000},
		{"x": 10, "y": 10},
	} {
		s, err := m.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if s < 0 || s > MaxScore {
			t.Fatalf("Score(%v) = %v outside [0, %v]", p, s, MaxScore)
		}
	}
}

// Property: with a single malicious centroid, moving a point from that
// centroid toward the benign cluster never increases its score. (With
// multiple centroids the nearest-centroid distance is not monotone along an
// arbitrary path, so the property is stated for k=1.)
func TestModelScoreMonotoneAlongPath(t *testing.T) {
	m := trainToy(t, WithClusters(1))
	prev := MaxScore + 1.0
	for step := 0; step <= 20; step++ {
		frac := float64(step) / 20
		x := 10 * (1 - frac)
		s, err := m.Score(map[string]float64{"x": x, "y": x})
		if err != nil {
			t.Fatal(err)
		}
		if s > prev+1e-9 {
			t.Fatalf("score increased while moving away from malicious centroid: step %d, %v > %v", step, s, prev)
		}
		prev = s
	}
}

func TestModelScoreMissingAttr(t *testing.T) {
	m := trainToy(t)
	if _, err := m.Score(map[string]float64{"x": 1}); !errors.Is(err, ErrMissingAttr) {
		t.Fatalf("err = %v, want ErrMissingAttr", err)
	}
}

func TestModelScoreIgnoresExtraAttrs(t *testing.T) {
	m := trainToy(t)
	a, err := m.Score(map[string]float64{"x": 5, "y": 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Score(map[string]float64{"x": 5, "y": 5, "unrelated": 99})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("extra attribute changed score: %v != %v", a, b)
	}
}

func TestModelScoreVector(t *testing.T) {
	m := trainToy(t)
	viaMap, err := m.Score(map[string]float64{"x": 7, "y": 3})
	if err != nil {
		t.Fatal(err)
	}
	viaVec, err := m.ScoreVector([]float64{7, 3}) // canonical order: x, y
	if err != nil {
		t.Fatal(err)
	}
	if viaMap != viaVec {
		t.Fatalf("map score %v != vector score %v", viaMap, viaVec)
	}
	if _, err := m.ScoreVector([]float64{1}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestModelDeterministicTraining(t *testing.T) {
	m1 := trainToy(t, WithSeed(7))
	m2 := trainToy(t, WithSeed(7))
	probe := map[string]float64{"x": 4.2, "y": 6.9}
	s1, err := m1.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different models: %v != %v", s1, s2)
	}
}

func TestModelDeadDimension(t *testing.T) {
	samples := []Sample{
		{Attrs: map[string]float64{"x": 0, "constant": 5}, Malicious: false},
		{Attrs: map[string]float64{"x": 0.1, "constant": 5}, Malicious: false},
		{Attrs: map[string]float64{"x": 10, "constant": 5}, Malicious: true},
		{Attrs: map[string]float64{"x": 9.9, "constant": 5}, Malicious: true},
	}
	m, err := Train(samples, WithClusters(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Score(map[string]float64{"x": 10, "constant": 123})
	if err != nil {
		t.Fatal(err)
	}
	if s < 8 {
		t.Fatalf("dead dimension distorted score: %v", s)
	}
}

func TestModelAccessors(t *testing.T) {
	m := trainToy(t, WithClusters(2))
	names := m.Schema().Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Schema().Names() = %v", names)
	}
	names[0] = "mutated"
	if m.Schema().Names()[0] != "x" {
		t.Fatal("Schema().Names() exposed internal slice")
	}
	if m.Clusters() < 1 || m.Clusters() > 2 {
		t.Fatalf("Clusters() = %d", m.Clusters())
	}
	distMal, distBen := m.Calibration()
	if distMal < 0 || distBen <= distMal {
		t.Fatalf("Calibration() = (%v, %v), want 0 ≤ mal < ben", distMal, distBen)
	}
}

// Property: any probe scores within [0, MaxScore].
func TestModelScoreBoundedProperty(t *testing.T) {
	m := trainToy(t)
	f := func(x, y float64) bool {
		s, err := m.Score(map[string]float64{"x": x, "y": y})
		return err == nil && s >= 0 && s <= MaxScore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
