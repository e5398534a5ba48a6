package reputation

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Persisted format versions. Version 1 predates scoring verdicts; version
// 2 adds the confidence calibration (benign centroids + margin scale).
// Load accepts both — a v1 model simply scores at confidence 1, exactly
// its pre-verdict behavior.
const (
	modelFileVersion   = 2
	modelFileVersionV1 = 1
)

// modelJSON is the on-disk representation of a trained Model.
type modelJSON struct {
	Version   int         `json:"version"`
	AttrNames []string    `json:"attr_names"`
	Mins      []float64   `json:"mins"`
	Ranges    []float64   `json:"ranges"`
	Centroids [][]float64 `json:"centroids"`
	DistMal   float64     `json:"dist_malicious_median"`
	DistBen   float64     `json:"dist_benign_median"`

	// Confidence calibration (version ≥ 2).
	BenignCentroids [][]float64 `json:"benign_centroids,omitempty"`
	MarginCal       float64     `json:"margin_calibration,omitempty"`
}

// Save writes the model as JSON. The format is stable across releases
// within the same major version.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(modelJSON{
		Version:         modelFileVersion,
		AttrNames:       m.attrNames,
		Mins:            m.mins,
		Ranges:          m.ranges,
		Centroids:       m.centroids,
		DistMal:         m.distMal,
		DistBen:         m.distBen,
		BenignCentroids: m.benignCentroids,
		MarginCal:       m.marginCal,
	}); err != nil {
		return fmt.Errorf("reputation: encode model: %w", err)
	}
	return nil
}

// LoadFile reads the model file at path (see Load).
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load reads a model previously written by Save, validating structural
// consistency so a corrupt file fails loudly instead of mis-scoring.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("reputation: decode model: %w", err)
	}
	if mj.Version != modelFileVersion && mj.Version != modelFileVersionV1 {
		return nil, fmt.Errorf("reputation: unsupported model file version %d", mj.Version)
	}
	dim := len(mj.AttrNames)
	if dim == 0 {
		return nil, fmt.Errorf("reputation: model has no attributes")
	}
	if len(mj.Mins) != dim || len(mj.Ranges) != dim {
		return nil, fmt.Errorf("reputation: normalization bounds have wrong dimension")
	}
	if len(mj.Centroids) == 0 {
		return nil, fmt.Errorf("reputation: model has no centroids")
	}
	for i, c := range mj.Centroids {
		if len(c) != dim {
			return nil, fmt.Errorf("reputation: centroid %d has dimension %d, want %d", i, len(c), dim)
		}
	}
	if mj.DistMal < 0 || mj.DistBen <= mj.DistMal {
		return nil, fmt.Errorf("reputation: invalid calibration anchors (mal %v, ben %v)",
			mj.DistMal, mj.DistBen)
	}
	for i := 1; i < dim; i++ {
		if mj.AttrNames[i-1] >= mj.AttrNames[i] {
			return nil, fmt.Errorf("reputation: attribute names not in canonical order")
		}
	}
	for i, c := range mj.BenignCentroids {
		if len(c) != dim {
			return nil, fmt.Errorf("reputation: benign centroid %d has dimension %d, want %d", i, len(c), dim)
		}
	}
	if len(mj.BenignCentroids) > 0 && mj.MarginCal <= 0 {
		return nil, fmt.Errorf("reputation: benign centroids without a positive margin calibration")
	}
	return &Model{
		attrNames:       mj.AttrNames,
		schema:          schemaFor(mj.AttrNames),
		mins:            mj.Mins,
		ranges:          mj.Ranges,
		centroids:       mj.Centroids,
		distMal:         mj.DistMal,
		distBen:         mj.DistBen,
		benignCentroids: mj.BenignCentroids,
		marginCal:       mj.MarginCal,
	}, nil
}
