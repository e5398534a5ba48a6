package features

import (
	"errors"
	"time"
)

// The framework speaks interned vectors only. Map-shaped user code — a
// scoring function over attribute names, a feed lookup returning a map —
// enters through the two adapters below, at the edge, paying its map per
// request there instead of imposing a second path through the core.

// MapSource is the map-shaped adapter input of SourceFromMap: anything
// that can describe a client as an attribute map.
type MapSource interface {
	// Attributes returns the attribute map used to score ip. The returned
	// map is read-only from the adapter's perspective.
	Attributes(ip string, now time.Time) map[string]float64
}

// SourceFromMap adapts a map-shaped source to the VectorSource contract:
// each fill looks the map up and lays the attributes the schema names out
// in slot order, reporting the rest as uncovered.
func SourceFromMap(src MapSource) VectorSource { return mapSource{src} }

type mapSource struct{ src MapSource }

func (m mapSource) AttributesVector(dst []float64, schema *Schema, ip string, now time.Time) uint64 {
	return fillFromMap(dst, m.src.Attributes(ip, now), schema)
}

// NewMapScorer adapts a map-shaped scoring function to the VectorScorer
// contract. attrs declares the attribute names score reads: they become
// the scorer's schema, so sources know what to fill and a client lacking
// one fails closed by name before score ever runs.
func NewMapScorer(score func(attrs map[string]float64) (float64, error), attrs ...string) (VectorScorer, error) {
	if score == nil {
		return nil, errors.New("features: map scorer requires a scoring function")
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	return mapScorer{schema: schema, score: score}, nil
}

type mapScorer struct {
	schema *Schema
	score  func(map[string]float64) (float64, error)
}

func (m mapScorer) Schema() *Schema { return m.schema }

func (m mapScorer) ScoreVector(v []float64) (float64, error) {
	attrs := make(map[string]float64, len(v))
	for j, name := range m.schema.names {
		attrs[name] = v[j]
	}
	return m.score(attrs)
}

// ScoreAttrs scores one attribute map through s's schema — the offline
// entry point (evaluation, CLIs, spot checks) to the same ScoreVector the
// serving path runs. Attributes outside the schema are ignored; a schema
// attribute absent from attrs is an ErrMissingAttr naming it.
func ScoreAttrs(s VectorScorer, attrs map[string]float64) (float64, error) {
	schema := s.Schema()
	if schema == nil {
		return 0, errors.New("features: scorer publishes no schema")
	}
	v := schema.NewVector()
	if mask := fillFromMap(v, attrs, schema); mask != schema.full {
		return 0, schema.Missing(mask)
	}
	return s.ScoreVector(v)
}

// fillFromMap writes the schema attributes attrs carries into dst and
// returns their coverage mask.
func fillFromMap(dst []float64, attrs map[string]float64, schema *Schema) uint64 {
	var mask uint64
	for j, name := range schema.names {
		if val, ok := attrs[name]; ok {
			dst[j] = val
			mask |= 1 << uint(j)
		}
	}
	return mask
}
