// Package reputation implements the paper's AI subsystem: DAbR-style
// (Renjan et al., ISI 2018) dynamic attribute-based reputation scoring.
//
// DAbR learns from the attribute vectors of previously-known malicious IP
// addresses and scores an unseen IP by its Euclidean distance to that
// learned malicious region: the closer an IP's attributes sit to a
// malicious cluster, the higher its reputation score, on a normalized
// 0–10 scale where 10 is most untrustworthy — exactly the input contract
// the paper's policy module expects.
//
// This implementation represents the malicious region as k cluster
// centroids (k-means++ over the malicious training vectors, in min-max
// normalized space) and calibrates the distance-to-score mapping from the
// training data so that the score-5 decision boundary sits midway between
// the median malicious and median benign distances.
package reputation

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"aipow/internal/features"
)

const (
	// MaxScore is the top of the reputation scale (most untrustworthy).
	MaxScore = 10.0

	// DefaultClusters is the default number of malicious centroids,
	// matching the three attack families the dataset generator models.
	DefaultClusters = 3

	// DefaultIterations bounds Lloyd iterations during training.
	DefaultIterations = 50
)

// Typed training failures.
var (
	// ErrNoSamples reports an empty training set.
	ErrNoSamples = errors.New("reputation: no training samples")

	// ErrOneClass reports a training set with only one label present;
	// calibration needs both malicious and benign examples.
	ErrOneClass = errors.New("reputation: training set must contain both classes")

	// ErrMissingAttr reports a training sample or scoring request lacking
	// a model attribute (the features sentinel, under its historical name).
	ErrMissingAttr = features.ErrMissingAttr
)

// Sample is one labeled training observation: a full attribute map plus the
// ground-truth label.
type Sample struct {
	Attrs     map[string]float64
	Malicious bool
}

// Model is a trained DAbR reputation scorer. Obtain one from Train or Load.
// Model is immutable after training and safe for concurrent use.
type Model struct {
	attrNames []string         // canonical (sorted) attribute order
	schema    *features.Schema // interned attrNames layout (nil: too wide to serve)
	mins      []float64        // per-attribute normalization lower bound
	ranges    []float64        // per-attribute (max-min); 0 marks a dead dimension
	centroids [][]float64      // malicious centroids in normalized space

	// Calibration anchors: the median nearest-centroid distance of the
	// malicious (distMal) and benign (distBen) training points. Scoring
	// maps distMal → 9 and distBen → 1 linearly (clamped to [0, 10]), so
	// the decision boundary at score 5 sits exactly midway between the
	// class medians and the scale is actually spanned, as DAbR intends.
	distMal, distBen float64

	// Confidence calibration: centroids of the *benign* training class and
	// the class-margin scale. A point's cluster margin is
	// |dBen − dMal| / (dBen + dMal) — near 0 when the point sits in the
	// overlap region both classes occupy (the false-positive tail lives
	// exactly there), near 1 deep inside one class's region. marginCal is
	// the lower-decile (q = 0.10) margin of the malicious training
	// points, so the clear majority of flagged clients calibrate to full
	// confidence and only the genuinely ambiguous tail falls off
	// proportionally. benignCentroids may be empty on models loaded from
	// a pre-verdict file; such models score at confidence 1.
	benignCentroids [][]float64
	marginCal       float64
}

var _ features.VerdictScorer = (*Model)(nil)

// trainConfig collects Train options.
type trainConfig struct {
	clusters int
	seed     uint64
}

// TrainOption customizes Train.
type TrainOption func(*trainConfig)

// WithClusters sets the number of malicious centroids (default 3).
func WithClusters(k int) TrainOption {
	return func(c *trainConfig) { c.clusters = k }
}

// WithSeed makes training deterministic (default seed 1).
func WithSeed(seed uint64) TrainOption {
	return func(c *trainConfig) { c.seed = seed }
}

// Train fits a Model on labeled samples. Attribute order and normalization
// bounds are derived from the training set; every sample must share the
// same attribute keys as the first one.
func Train(samples []Sample, opts ...TrainOption) (*Model, error) {
	cfg := trainConfig{clusters: DefaultClusters, seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.clusters < 1 {
		return nil, fmt.Errorf("reputation: clusters must be positive, got %d", cfg.clusters)
	}
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}

	attrNames := make([]string, 0, len(samples[0].Attrs))
	for name := range samples[0].Attrs {
		attrNames = append(attrNames, name)
	}
	sort.Strings(attrNames)
	if len(attrNames) == 0 {
		return nil, fmt.Errorf("reputation: samples carry no attributes")
	}

	m := &Model{
		attrNames: attrNames,
		schema:    schemaFor(attrNames),
		mins:      make([]float64, len(attrNames)),
		ranges:    make([]float64, len(attrNames)),
	}

	// Raw vectors in canonical order; validate attribute completeness.
	raw := make([][]float64, len(samples))
	var nMal int
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
		if s.Malicious {
			nMal++
		}
	}
	if nMal == 0 || nMal == len(samples) {
		return nil, ErrOneClass
	}

	// Min-max bounds over the full training set.
	maxs := make([]float64, len(attrNames))
	for j := range attrNames {
		m.mins[j], maxs[j] = raw[0][j], raw[0][j]
	}
	for _, v := range raw {
		for j, x := range v {
			if x < m.mins[j] {
				m.mins[j] = x
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	for j := range attrNames {
		m.ranges[j] = maxs[j] - m.mins[j]
	}

	// Normalize (in place — raw is not used again), split classes.
	var malicious, benign [][]float64
	for i, v := range raw {
		m.normalizeInPlace(v)
		if samples[i].Malicious {
			malicious = append(malicious, v)
		} else {
			benign = append(benign, v)
		}
	}

	k := cfg.clusters
	if k > len(malicious) {
		k = len(malicious)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xD1B54A32D192ED03))
	centroids, err := kMeans(malicious, k, DefaultIterations, rng)
	if err != nil {
		return nil, fmt.Errorf("reputation: cluster malicious samples: %w", err)
	}
	m.centroids = centroids

	// Benign-region centroids anchor the confidence calibration: the
	// cluster margin needs a distance to *both* class regions to tell an
	// in-cluster malicious point from an overlap point that merely sits
	// near a malicious centroid.
	kb := cfg.clusters
	if kb > len(benign) {
		kb = len(benign)
	}
	benignCentroids, err := kMeans(benign, kb, DefaultIterations, rng)
	if err != nil {
		return nil, fmt.Errorf("reputation: cluster benign samples: %w", err)
	}
	m.benignCentroids = benignCentroids
	m.marginCal = marginQuantile(malicious, centroids, benignCentroids, 0.10)
	if m.marginCal <= 0 {
		// Degenerate geometry (classes collapse onto each other): disable
		// margin scaling rather than divide by zero; boundary separation
		// still shapes the confidence.
		m.marginCal = 1
	}

	// Calibration: anchor the malicious median distance at score 9 and the
	// benign median at score 1. The score-5 boundary then sits midway
	// between the class medians (threshold MaxScore/2 is the natural
	// operating point) and typical class members land near the ends of the
	// scale rather than hugging the middle.
	m.distMal = medianDistance(malicious, centroids)
	m.distBen = medianDistance(benign, centroids)
	if m.distBen <= m.distMal {
		return nil, fmt.Errorf("reputation: classes not separable by distance "+
			"(malicious median %v, benign median %v): cannot calibrate", m.distMal, m.distBen)
	}
	return m, nil
}

// Score maps an attribute map to a reputation score in [0, MaxScore] — the
// offline form of ScoreVector. Unknown extra attributes are ignored;
// missing model attributes are an ErrMissingAttr.
func (m *Model) Score(attrs map[string]float64) (float64, error) {
	return features.ScoreAttrs(m, attrs)
}

// Schema reports the interned layout ScoreVector expects: the training
// attributes in sorted order. It is nil when the model's dimensionality
// exceeds what a schema can hold; core.New refuses such a model.
func (m *Model) Schema() *features.Schema { return m.schema }

// ScoreVector scores a raw-unit vector laid out in Schema order.
// The vector is used as scratch space: its contents are unspecified on
// return.
func (m *Model) ScoreVector(v []float64) (float64, error) {
	if len(v) != len(m.attrNames) {
		return 0, fmt.Errorf("reputation: vector has %d dims, model wants %d", len(v), len(m.attrNames))
	}
	return m.scoreInPlace(v), nil
}

// VerdictVector implements features.VerdictScorer: the calibrated score
// plus the model's confidence in it. Like ScoreVector, v is scratch space.
func (m *Model) VerdictVector(v []float64) (features.Verdict, error) {
	if len(v) != len(m.attrNames) {
		return features.Verdict{}, fmt.Errorf("reputation: vector has %d dims, model wants %d", len(v), len(m.attrNames))
	}
	return m.verdictInPlace(v), nil
}

// scoreInPlace normalizes v in place and maps distance to score through
// the two-anchor calibration: distMal → 9, distBen → 1, linear in between
// and beyond, clamped to [0, MaxScore].
func (m *Model) scoreInPlace(v []float64) float64 {
	m.normalizeInPlace(v)
	return m.scoreNormalized(distToNearest(v, m.centroids))
}

// scoreNormalized maps a nearest-malicious-centroid distance to [0, MaxScore].
func (m *Model) scoreNormalized(d float64) float64 {
	score := 9 - 8*(d-m.distMal)/(m.distBen-m.distMal)
	if score < 0 {
		return 0
	}
	if score > MaxScore {
		return MaxScore
	}
	return score
}

// verdictInPlace normalizes v and derives score and confidence. The
// confidence blends two calibrated terms:
//
//   - cluster margin: |dBen − dMal| / (dBen + dMal), scaled so the median
//     malicious training point maps to 1. Points in the class-overlap
//     region — where the scorer's false positives live — have margin near
//     0 regardless of how high they score.
//   - boundary separation: how far the calibrated score sits from the
//     score-5 decision boundary, in half-scale units.
//
// The margin dominates (the boundary term only shades): a score can be
// extreme and still carry low confidence when the point is geometrically
// ambiguous between the classes.
func (m *Model) verdictInPlace(v []float64) features.Verdict {
	m.normalizeInPlace(v)
	dMal := distToNearest(v, m.centroids)
	score := m.scoreNormalized(dMal)
	if len(m.benignCentroids) == 0 {
		return features.Verdict{Score: score, Confidence: 1}
	}
	dBen := distToNearest(v, m.benignCentroids)
	margin := classMargin(dMal, dBen) / m.marginCal
	if margin > 1 {
		margin = 1
	}
	// Full boundary separation at the calibration anchors (score 9 / 1),
	// matching the distance calibration: a score at or beyond an anchor
	// is as far from the decision boundary as the training classes get.
	boundary := math.Abs(score-5) / 4
	if boundary > 1 {
		boundary = 1
	}
	// The boundary term only shades (by up to a quarter): a typical
	// in-cluster member must calibrate to near-full confidence, or
	// shaping would soften correctly-flagged clients as much as the
	// ambiguous ones it exists for.
	conf := margin * (0.75 + 0.25*boundary)
	if conf > 1 {
		conf = 1
	}
	return features.Verdict{Score: score, Confidence: conf}
}

// classMargin is the relative separation between the two class-region
// distances, in [0, 1]: 0 when equidistant (maximally ambiguous), →1 deep
// inside one region.
func classMargin(dMal, dBen float64) float64 {
	sum := dMal + dBen
	if sum <= 0 {
		return 0
	}
	return math.Abs(dBen-dMal) / sum
}

// marginQuantile is the q-quantile of the class margin over points — the
// calibration scale. Train anchors at the lower decile (q = 0.10) of the
// malicious class, mapping ~90% of flagged clients to full confidence
// and reserving shading for the points the model's own training set
// marks as ambiguous: calibrating higher (median, quartile) measurably
// shades correctly flagged clients, softening the defense where it is
// right (the suite's attacker-cost medians regressed at both).
func marginQuantile(points, malCentroids, benCentroids [][]float64, q float64) float64 {
	if len(points) == 0 {
		return 0
	}
	ms := make([]float64, len(points))
	for i, p := range points {
		ms[i] = classMargin(distToNearest(p, malCentroids), distToNearest(p, benCentroids))
	}
	sort.Float64s(ms)
	idx := int(q * float64(len(ms)-1))
	return ms[idx]
}

// normalizeInPlace maps a raw vector into [0,1]^d using the training
// bounds, clamping out-of-range values. Dead dimensions (zero range) map
// to 0.
func (m *Model) normalizeInPlace(v []float64) {
	for j, x := range v {
		if m.ranges[j] == 0 {
			v[j] = 0
			continue
		}
		n := (x - m.mins[j]) / m.ranges[j]
		if n < 0 {
			n = 0
		} else if n > 1 {
			n = 1
		}
		v[j] = n
	}
}

// schemaFor interns names as a schema, or nil when they cannot form one
// (more attributes than a coverage mask can track).
func schemaFor(names []string) *features.Schema {
	s, err := features.NewSchema(names...)
	if err != nil {
		return nil
	}
	return s
}

// Clusters reports the number of malicious centroids.
func (m *Model) Clusters() int { return len(m.centroids) }

// Calibration reports the distance anchors (malicious median, benign
// median) the score mapping was fitted to, for diagnostics.
func (m *Model) Calibration() (distMal, distBen float64) {
	return m.distMal, m.distBen
}

// euclidean returns the L2 distance between equal-length vectors.
func euclidean(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

// distToNearest returns the distance from p to the nearest centroid.
func distToNearest(p []float64, centroids [][]float64) float64 {
	best := math.Inf(1)
	for _, c := range centroids {
		if d := euclidean(p, c); d < best {
			best = d
		}
	}
	return best
}

// medianDistance returns the median nearest-centroid distance over points.
func medianDistance(points [][]float64, centroids [][]float64) float64 {
	if len(points) == 0 {
		return 0
	}
	ds := make([]float64, len(points))
	for i, p := range points {
		ds[i] = distToNearest(p, centroids)
	}
	sort.Float64s(ds)
	n := len(ds)
	if n%2 == 1 {
		return ds[n/2]
	}
	return (ds[n/2-1] + ds[n/2]) / 2
}
