package reputation

import (
	"errors"
	"testing"

	"aipow/internal/features"
)

func TestNewKNNValidation(t *testing.T) {
	if _, err := NewKNN(nil, 3); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
	if _, err := NewKNN(toySamples(3, 1), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := []Sample{
		{Attrs: map[string]float64{"x": 1, "y": 2}, Malicious: true},
		{Attrs: map[string]float64{"x": 1}, Malicious: false},
	}
	if _, err := NewKNN(bad, 1); !errors.Is(err, ErrMissingAttr) {
		t.Fatalf("err = %v, want ErrMissingAttr", err)
	}
}

func TestKNNClampsK(t *testing.T) {
	knn, err := NewKNN(toySamples(2, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if knn.K() != 4 { // toySamples(2,·) yields 4 samples
		t.Fatalf("K() = %d, want 4", knn.K())
	}
}

func TestKNNScoresSeparateClasses(t *testing.T) {
	knn, err := NewKNN(toySamples(50, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	mal, err := knn.Score(map[string]float64{"x": 10, "y": 10})
	if err != nil {
		t.Fatal(err)
	}
	ben, err := knn.Score(map[string]float64{"x": 0, "y": 0})
	if err != nil {
		t.Fatal(err)
	}
	if mal != MaxScore {
		t.Errorf("malicious-core kNN score = %v, want %v", mal, MaxScore)
	}
	if ben != 0 {
		t.Errorf("benign-core kNN score = %v, want 0", ben)
	}
}

func TestKNNScoreMissingAttr(t *testing.T) {
	knn, err := NewKNN(toySamples(5, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := knn.Score(map[string]float64{"x": 1}); !errors.Is(err, ErrMissingAttr) {
		t.Fatalf("err = %v, want ErrMissingAttr", err)
	}
}

func TestKNNMidpointIsMixed(t *testing.T) {
	knn, err := NewKNN(toySamples(50, 4), 10)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := knn.Score(map[string]float64{"x": 5, "y": 5})
	if err != nil {
		t.Fatal(err)
	}
	if mid < 0 || mid > MaxScore {
		t.Fatalf("midpoint score %v outside range", mid)
	}
}

func TestKNNSatisfiesScorer(t *testing.T) {
	knn, err := NewKNN(toySamples(5, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	var s features.VectorScorer = knn
	if _, err := features.ScoreAttrs(s, map[string]float64{"x": 1, "y": 1}); err != nil {
		t.Fatal(err)
	}
}
