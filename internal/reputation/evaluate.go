package reputation

import (
	"fmt"

	"aipow/internal/features"
)

// Evaluation is a binary-classification confusion matrix at a score
// threshold, with the derived quality measures the DAbR paper reports.
type Evaluation struct {
	// Threshold is the score at or above which a sample is classified
	// malicious. MaxScore/2 = 5 is the model's calibrated operating point.
	Threshold float64

	// TP, FP, TN, FN are the confusion-matrix counts.
	TP, FP, TN, FN int
}

// Total reports the number of evaluated samples.
func (e Evaluation) Total() int { return e.TP + e.FP + e.TN + e.FN }

// Accuracy reports (TP+TN)/total, the figure the paper quotes (~80%).
func (e Evaluation) Accuracy() float64 {
	if e.Total() == 0 {
		return 0
	}
	return float64(e.TP+e.TN) / float64(e.Total())
}

// Precision reports TP/(TP+FP), or 0 when undefined.
func (e Evaluation) Precision() float64 {
	if e.TP+e.FP == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FP)
}

// Recall reports TP/(TP+FN), or 0 when undefined.
func (e Evaluation) Recall() float64 {
	if e.TP+e.FN == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FN)
}

// F1 reports the harmonic mean of precision and recall, or 0 when undefined.
func (e Evaluation) F1() float64 {
	p, r := e.Precision(), e.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the evaluation one-per-line for experiment logs.
func (e Evaluation) String() string {
	return fmt.Sprintf("eval{thr=%.1f acc=%.3f prec=%.3f rec=%.3f f1=%.3f tp=%d fp=%d tn=%d fn=%d}",
		e.Threshold, e.Accuracy(), e.Precision(), e.Recall(), e.F1(), e.TP, e.FP, e.TN, e.FN)
}

// Evaluate classifies each sample with the scorer (malicious iff score ≥
// threshold) and tallies the confusion matrix against ground truth.
func Evaluate(s features.VectorScorer, samples []Sample, threshold float64) (Evaluation, error) {
	ev := Evaluation{Threshold: threshold}
	for i, sample := range samples {
		score, err := features.ScoreAttrs(s, sample.Attrs)
		if err != nil {
			return Evaluation{}, fmt.Errorf("reputation: score sample %d: %w", i, err)
		}
		predicted := score >= threshold
		switch {
		case predicted && sample.Malicious:
			ev.TP++
		case predicted && !sample.Malicious:
			ev.FP++
		case !predicted && !sample.Malicious:
			ev.TN++
		default:
			ev.FN++
		}
	}
	return ev, nil
}
