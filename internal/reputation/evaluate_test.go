package reputation

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aipow/internal/dataset"
	"aipow/internal/features"
)

// noAttrs is the schema of the stub scorers below: they read nothing.
var noAttrs, _ = features.NewSchema()

// constScorer always returns a fixed score.
type constScorer float64

func (constScorer) Schema() *features.Schema                 { return noAttrs }
func (c constScorer) ScoreVector([]float64) (float64, error) { return float64(c), nil }

// errScorer always fails.
type errScorer struct{}

func (errScorer) Schema() *features.Schema { return noAttrs }
func (errScorer) ScoreVector([]float64) (float64, error) {
	return 0, errors.New("boom")
}

func TestEvaluationMetricsMath(t *testing.T) {
	ev := Evaluation{Threshold: 5, TP: 40, FP: 10, TN: 35, FN: 15}
	if got := ev.Total(); got != 100 {
		t.Fatalf("Total() = %d", got)
	}
	if got := ev.Accuracy(); got != 0.75 {
		t.Fatalf("Accuracy() = %v, want 0.75", got)
	}
	if got := ev.Precision(); got != 0.8 {
		t.Fatalf("Precision() = %v, want 0.8", got)
	}
	if got := ev.Recall(); math.Abs(got-40.0/55.0) > 1e-12 {
		t.Fatalf("Recall() = %v", got)
	}
	wantF1 := 2 * 0.8 * (40.0 / 55.0) / (0.8 + 40.0/55.0)
	if got := ev.F1(); math.Abs(got-wantF1) > 1e-12 {
		t.Fatalf("F1() = %v, want %v", got, wantF1)
	}
	if !strings.Contains(ev.String(), "acc=0.750") {
		t.Fatalf("String() = %q", ev.String())
	}
}

func TestEvaluationDegenerateMetrics(t *testing.T) {
	var ev Evaluation
	if ev.Accuracy() != 0 || ev.Precision() != 0 || ev.Recall() != 0 || ev.F1() != 0 {
		t.Fatal("empty evaluation metrics should be 0")
	}
}

func TestEvaluateAllMaliciousPrediction(t *testing.T) {
	samples := []Sample{
		{Attrs: map[string]float64{"x": 1}, Malicious: true},
		{Attrs: map[string]float64{"x": 2}, Malicious: false},
	}
	ev, err := Evaluate(constScorer(9), samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TP != 1 || ev.FP != 1 || ev.TN != 0 || ev.FN != 0 {
		t.Fatalf("confusion = %+v", ev)
	}
}

func TestEvaluatePropagatesScorerError(t *testing.T) {
	if _, err := Evaluate(errScorer{}, []Sample{{Attrs: nil}}, 5); err == nil {
		t.Fatal("scorer error swallowed")
	}
}

func TestEvaluateTrainedModelOnToyData(t *testing.T) {
	train := toySamples(100, 5)
	test := toySamples(30, 6)
	m, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(m, test, MaxScore/2)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ev.Accuracy(); acc < 0.98 {
		t.Fatalf("accuracy on separable toy data = %v, want ≥ 0.98", acc)
	}
}

// fromDataset adapts dataset samples to reputation samples.
func fromDataset(in []dataset.Sample) []Sample {
	out := make([]Sample, len(in))
	for i, s := range in {
		out[i] = Sample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	return out
}

// Integration: with zero overlap the model should be near-perfect; with the
// calibrated overlap, accuracy should land in DAbR's reported band (~80%).
func TestModelAccuracyOnSyntheticDataset(t *testing.T) {
	run := func(overlap float64) float64 {
		t.Helper()
		cfg := dataset.DefaultConfig()
		cfg.Overlap = overlap
		raw, err := dataset.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		all := fromDataset(raw)
		trainSet, testSet := all[:4000], all[4000:]
		m, err := Train(trainSet)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(m, testSet, MaxScore/2)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Accuracy()
	}
	if acc := run(0); acc < 0.97 {
		t.Errorf("overlap 0 accuracy = %v, want ≥ 0.97", acc)
	}
	if acc := run(dataset.DefaultConfig().Overlap); acc < 0.70 || acc > 0.90 {
		t.Errorf("calibrated overlap accuracy = %v, want within [0.70, 0.90] (DAbR reports 0.80)", acc)
	}
}
