package features

// Verdict is a calibrated scoring outcome: the reputation score plus the
// scorer's confidence in it. A bare score says "how malicious does this
// client look"; the confidence says "how sure is the model" — two different
// questions a policy can (and should) treat differently. A misscored
// legitimate client typically produces a high score at low confidence (it
// sits in the overlap region between the training classes), while a
// genuinely flagged client produces a high score at high confidence (it
// sits inside a malicious cluster).
type Verdict struct {
	// Score is the reputation score in [0, 10]; higher = less trustworthy.
	Score float64

	// Confidence is the scorer's calibrated certainty in Score, in [0, 1].
	// 1 means the score should be enforced at face value; values near 0
	// mean the model cannot separate this client from the opposite class.
	Confidence float64
}

// VerdictScorer is the optional confidence-carrying form of a scorer: in
// addition to the plain vector score it reports how certain the model is.
// The core framework consults it only when the active policy consumes
// confidence (policy.ConfidenceAware), threading the confidence through;
// otherwise, and for plain VectorScorers, rows are scored through
// ScoreVector at an implied confidence of 1.
type VerdictScorer interface {
	VectorScorer

	// VerdictVector scores a raw-unit vector laid out in Schema order,
	// returning both the score and the model's calibrated confidence in
	// it. Like ScoreVector, the vector may be used as scratch space; its
	// contents are unspecified on return.
	VerdictVector(v []float64) (Verdict, error)
}
