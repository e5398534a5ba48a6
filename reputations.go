package aipow

import (
	"io"

	"aipow/internal/dataset"
	"aipow/internal/reputation"
)

// ReputationModel is a trained DAbR-style reputation scorer: Euclidean
// distance to learned malicious attribute centroids, calibrated to [0, 10].
// It satisfies Scorer.
type ReputationModel = reputation.Model

// ReputationSample is one labeled training observation.
type ReputationSample = reputation.Sample

// TrainOption configures TrainReputationModel.
type TrainOption = reputation.TrainOption

// TrainReputationModel fits the DAbR-style scorer on labeled samples.
func TrainReputationModel(samples []ReputationSample, opts ...TrainOption) (*ReputationModel, error) {
	return reputation.Train(samples, opts...)
}

// WithClusters sets the number of malicious centroids (default 3).
func WithClusters(k int) TrainOption { return reputation.WithClusters(k) }

// WithTrainSeed makes training deterministic.
func WithTrainSeed(seed uint64) TrainOption { return reputation.WithSeed(seed) }

// LoadReputationModel reads a model saved with ReputationModel.Save.
func LoadReputationModel(r io.Reader) (*ReputationModel, error) {
	return reputation.Load(r)
}

// KNNScorer is the kNN alternative reputation scorer.
type KNNScorer = reputation.KNN

// RedemptionScorer wraps a scorer with behavioral redemption: IPs with
// sustained verified-solve evidence — and otherwise unremarkable behavior
// — earn a decaying attenuation of their effective score, so a misscored
// legitimate client works its way out of the false-positive tail. The
// evidence is written by Framework.Verify into the attached Tracker; the
// decay half-life is the tracker's (WithEvidenceHalfLife).
type RedemptionScorer = reputation.Decay

// RedemptionOption configures NewRedemptionScorer.
type RedemptionOption = reputation.DecayOption

// NewRedemptionScorer wraps inner (e.g. a trained ReputationModel) with
// behavioral redemption; the evidence attributes are appended to inner's
// schema.
func NewRedemptionScorer(inner Scorer, opts ...RedemptionOption) (*RedemptionScorer, error) {
	return reputation.NewDecay(inner, opts...)
}

// WithMaxRedemption caps the score attenuation evidence can earn
// (default 6).
func WithMaxRedemption(drop float64) RedemptionOption {
	return reputation.WithMaxRedemption(drop)
}

// WithRedemptionHalfCredit sets the solve credit at which half the
// maximum redemption applies (default 26).
func WithRedemptionHalfCredit(credit float64) RedemptionOption {
	return reputation.WithHalfCredit(credit)
}

// NewKNNScorer builds a kNN scorer over labeled samples.
func NewKNNScorer(samples []ReputationSample, k int) (*KNNScorer, error) {
	return reputation.NewKNN(samples, k)
}

// Evaluation is a confusion matrix with accuracy/precision/recall/F1.
type Evaluation = reputation.Evaluation

// EvaluateScorer classifies samples (malicious iff score ≥ threshold) and
// tallies quality against ground truth.
func EvaluateScorer(s Scorer, samples []ReputationSample, threshold float64) (Evaluation, error) {
	return reputation.Evaluate(s, samples, threshold)
}

// DatasetConfig parameterizes the synthetic Talos-like IP attribute feed.
type DatasetConfig = dataset.Config

// DatasetSample is one labeled IP observation.
type DatasetSample = dataset.Sample

// DefaultDatasetConfig is the calibrated configuration under which the
// trained model reproduces DAbR's ~80% accuracy.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// GenerateDataset synthesizes a labeled IP attribute dataset.
func GenerateDataset(cfg DatasetConfig) ([]DatasetSample, error) {
	return dataset.Generate(cfg)
}

// DatasetToSamples adapts dataset samples to training samples.
func DatasetToSamples(in []DatasetSample) []ReputationSample {
	out := make([]ReputationSample, len(in))
	for i, s := range in {
		out[i] = ReputationSample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	return out
}
