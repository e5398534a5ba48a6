package reputation

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"aipow/internal/features"
)

// KNN is an alternative reputation scorer: the score of an IP is
// MaxScore times the malicious fraction among its k nearest training
// neighbours (in the same normalized attribute space the Model uses).
// It demonstrates the framework's "AI model is swappable" claim and serves
// as a sanity baseline for the centroid model in the evaluation.
//
// KNN is immutable after construction and safe for concurrent use.
type KNN struct {
	k         int
	attrNames []string
	schema    *features.Schema
	mins      []float64
	ranges    []float64
	points    [][]float64
	labels    []bool
	scratch   sync.Pool // *knnScratch
}

var _ features.VerdictScorer = (*KNN)(nil)

// knnScratch is the reusable per-call state of a ScoreVector call: the
// running k-best arrays.
type knnScratch struct {
	d   []float64
	mal []bool
}

// NewKNN builds a kNN scorer from labeled samples. k is clamped to the
// sample count. Normalization bounds are derived from the samples exactly
// as in Train.
func NewKNN(samples []Sample, k int) (*KNN, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if k < 1 {
		return nil, fmt.Errorf("reputation: k must be positive, got %d", k)
	}
	if k > len(samples) {
		k = len(samples)
	}

	attrNames := make([]string, 0, len(samples[0].Attrs))
	for name := range samples[0].Attrs {
		attrNames = append(attrNames, name)
	}
	sort.Strings(attrNames)

	knn := &KNN{
		k:         k,
		attrNames: attrNames,
		schema:    schemaFor(attrNames),
		mins:      make([]float64, len(attrNames)),
		ranges:    make([]float64, len(attrNames)),
		points:    make([][]float64, len(samples)),
		labels:    make([]bool, len(samples)),
	}

	raw := make([][]float64, len(samples))
	for i, s := range samples {
		v := make([]float64, len(attrNames))
		for j, name := range attrNames {
			val, ok := s.Attrs[name]
			if !ok {
				return nil, fmt.Errorf("%w: sample %d lacks %q", ErrMissingAttr, i, name)
			}
			v[j] = val
		}
		raw[i] = v
		knn.labels[i] = s.Malicious
	}

	maxs := make([]float64, len(attrNames))
	for j := range attrNames {
		knn.mins[j], maxs[j] = raw[0][j], raw[0][j]
	}
	for _, v := range raw {
		for j, x := range v {
			if x < knn.mins[j] {
				knn.mins[j] = x
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	for j := range attrNames {
		knn.ranges[j] = maxs[j] - knn.mins[j]
	}
	for i, v := range raw {
		knn.normalizeInPlace(v)
		knn.points[i] = v
	}
	return knn, nil
}

// Score maps an attribute map to [0, MaxScore] by majority mass of the k
// nearest neighbours — the offline form of ScoreVector.
func (knn *KNN) Score(attrs map[string]float64) (float64, error) {
	return features.ScoreAttrs(knn, attrs)
}

// Schema reports the interned layout ScoreVector expects.
func (knn *KNN) Schema() *features.Schema { return knn.schema }

// ScoreVector scores a raw-unit vector laid out in Schema order. The
// vector is used as scratch space: its contents are unspecified on return.
func (knn *KNN) ScoreVector(v []float64) (float64, error) {
	if len(v) != len(knn.attrNames) {
		return 0, fmt.Errorf("reputation: vector has %d dims, knn wants %d", len(v), len(knn.attrNames))
	}
	knn.normalizeInPlace(v)
	sp := knn.getScratch()
	score := knn.scoreNormalized(v, sp)
	knn.scratch.Put(sp)
	return score, nil
}

// VerdictVector implements features.VerdictScorer. A kNN verdict's
// confidence is the neighbourhood's unanimity, |2·malFrac − 1|: a
// unanimous vote is fully confident, an even split — the overlap region
// where this scorer's false positives live — carries no confidence.
func (knn *KNN) VerdictVector(v []float64) (features.Verdict, error) {
	score, err := knn.ScoreVector(v)
	if err != nil {
		return features.Verdict{}, err
	}
	return knn.verdictOf(score), nil
}

// verdictOf derives the unanimity confidence from a kNN score (the score
// *is* MaxScore·malFrac, so no second neighbour pass is needed).
func (knn *KNN) verdictOf(score float64) features.Verdict {
	conf := math.Abs(2*score/MaxScore - 1)
	if conf > 1 {
		conf = 1
	}
	return features.Verdict{Score: score, Confidence: conf}
}

// getScratch returns pooled per-call state sized for this scorer.
func (knn *KNN) getScratch() *knnScratch {
	sp, _ := knn.scratch.Get().(*knnScratch)
	if sp == nil {
		sp = &knnScratch{
			d:   make([]float64, knn.k),
			mal: make([]bool, knn.k),
		}
	}
	return sp
}

// scoreNormalized finds the k nearest training points to the normalized
// query q by maintaining a small sorted k-best array (k is tiny, so this
// O(n·k) pass beats sorting all n distances and allocates nothing).
func (knn *KNN) scoreNormalized(q []float64, sp *knnScratch) float64 {
	d, mal := sp.d[:0], sp.mal[:0]
	for i, p := range knn.points {
		dist := euclidean(q, p)
		if len(d) < knn.k {
			d = append(d, dist)
			mal = append(mal, knn.labels[i])
		} else if dist < d[len(d)-1] {
			d[len(d)-1], mal[len(d)-1] = dist, knn.labels[i]
		} else {
			continue
		}
		for j := len(d) - 1; j > 0 && d[j-1] > d[j]; j-- {
			d[j-1], d[j] = d[j], d[j-1]
			mal[j-1], mal[j] = mal[j], mal[j-1]
		}
	}
	malicious := 0
	for _, isMal := range mal {
		if isMal {
			malicious++
		}
	}
	return MaxScore * float64(malicious) / float64(len(d))
}

// K reports the neighbour count in use.
func (knn *KNN) K() int { return knn.k }

func (knn *KNN) normalizeInPlace(v []float64) {
	for j, x := range v {
		if knn.ranges[j] == 0 {
			v[j] = 0
			continue
		}
		n := (x - knn.mins[j]) / knn.ranges[j]
		if n < 0 {
			n = 0
		} else if n > 1 {
			n = 1
		}
		v[j] = n
	}
}
