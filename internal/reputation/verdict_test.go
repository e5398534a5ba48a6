package reputation

import (
	"bytes"
	"encoding/json"
	"testing"

	"aipow/internal/dataset"
	"aipow/internal/features"
)

// trainedModel builds the standard synthetic-feed model test fixture.
func trainedModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Seed = 4
	raw, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]Sample, len(raw))
	for i, s := range raw {
		samples[i] = Sample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	m, err := Train(samples, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	return m, samples
}

// verdictOf lays attrs out in s's schema (absent attributes read zero, the
// tracker's unknown-IP contract) and returns the scorer's verdict.
func verdictOf(t *testing.T, s features.VerdictScorer, attrs map[string]float64) features.Verdict {
	t.Helper()
	v := s.Schema().NewVector()
	for j := range v {
		v[j] = attrs[s.Schema().Name(j)]
	}
	ver, err := s.VerdictVector(v)
	if err != nil {
		t.Fatal(err)
	}
	return ver
}

func TestModelVerdictMatchesScore(t *testing.T) {
	m, samples := trainedModel(t)
	for _, s := range samples[:200] {
		score, err := m.Score(s.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		ver := verdictOf(t, m, s.Attrs)
		if ver.Score != score {
			t.Fatalf("verdict score %v != Score %v", ver.Score, score)
		}
		if ver.Confidence < 0 || ver.Confidence > 1 {
			t.Fatalf("confidence %v outside [0, 1]", ver.Confidence)
		}
	}
}

// TestModelConfidenceCalibration pins the calibration's intent: the clear
// majority of correctly-flagged training points scores at (near) full
// confidence — shading must not soften the defense where the model is
// right — while the mean confidence of high-scoring points stays below 1
// (the ambiguous band exists and is marked).
func TestModelConfidenceCalibration(t *testing.T) {
	m, samples := trainedModel(t)
	var full, n int
	var sum float64
	for _, s := range samples {
		if !s.Malicious {
			continue
		}
		ver := verdictOf(t, m, s.Attrs)
		if ver.Score < 5 {
			continue
		}
		n++
		sum += ver.Confidence
		if ver.Confidence >= 0.95 {
			full++
		}
	}
	if n == 0 {
		t.Fatal("no true positives in fixture")
	}
	if frac := float64(full) / float64(n); frac < 0.5 {
		t.Errorf("only %.2f of true positives at near-full confidence, want most", frac)
	}
	if mean := sum / float64(n); mean >= 0.999 {
		t.Errorf("mean TP confidence %.3f — calibration marks nothing as ambiguous", mean)
	}
}

func TestModelVerdictFastPathSelfConsistent(t *testing.T) {
	m, _ := trainedModel(t)
	if m.Schema() == nil {
		t.Fatal("model schema unexpectedly nil")
	}
	if _, err := m.VerdictVector(make([]float64, m.Schema().Len()+1)); err == nil {
		t.Error("VerdictVector accepted a wrong-length vector")
	}
}

func TestKNNVerdictUnanimity(t *testing.T) {
	samples := []Sample{
		{Attrs: map[string]float64{"x": 0}, Malicious: false},
		{Attrs: map[string]float64{"x": 0.1}, Malicious: false},
		{Attrs: map[string]float64{"x": 1}, Malicious: true},
		{Attrs: map[string]float64{"x": 0.9}, Malicious: true},
	}
	knn, err := NewKNN(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Unanimous malicious neighbourhood: score 10, confidence 1.
	ver := verdictOf(t, knn, map[string]float64{"x": 0.95})
	if ver.Score != MaxScore || ver.Confidence != 1 {
		t.Errorf("unanimous verdict = %+v, want score 10 conf 1", ver)
	}
	// Split neighbourhood: score 5, confidence 0.
	ver = verdictOf(t, knn, map[string]float64{"x": 0.5})
	if ver.Score != MaxScore/2 || ver.Confidence != 0 {
		t.Errorf("split verdict = %+v, want score 5 conf 0", ver)
	}
}

// TestPersistRoundTripVerdict pins that the v2 model file carries the
// confidence calibration and that verdicts survive a save/load cycle.
func TestPersistRoundTripVerdict(t *testing.T) {
	m, samples := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:100] {
		want := verdictOf(t, m, s.Attrs)
		got := verdictOf(t, loaded, s.Attrs)
		if got != want {
			t.Fatalf("verdict changed across save/load: %+v != %+v", got, want)
		}
	}
}

// TestLoadV1ModelScoresAtFullConfidence pins backward compatibility: a
// pre-verdict (version 1) model file — no benign centroids, no margin
// calibration — loads and verdicts at confidence 1.
func TestLoadV1ModelScoresAtFullConfidence(t *testing.T) {
	m, samples := trainedModel(t)
	v1, err := json.Marshal(modelJSON{
		Version:   modelFileVersionV1,
		AttrNames: m.attrNames,
		Mins:      m.mins,
		Ranges:    m.ranges,
		Centroids: m.centroids,
		DistMal:   m.distMal,
		DistBen:   m.distBen,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("load v1 model: %v", err)
	}
	ver := verdictOf(t, loaded, samples[0].Attrs)
	if ver.Confidence != 1 {
		t.Errorf("v1 model confidence = %v, want 1", ver.Confidence)
	}
	want, _ := m.Score(samples[0].Attrs)
	if ver.Score != want {
		t.Errorf("v1 model score = %v, want %v", ver.Score, want)
	}
}
