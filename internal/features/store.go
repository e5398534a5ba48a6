package features

import (
	"fmt"
	"sync"
	"time"
)

// MapStore is a static attribute source backed by an in-memory map — the
// shape of a Talos-style feed snapshot. IPs absent from the feed fall back
// to a configurable default profile.
//
// MapStore is safe for concurrent use.
type MapStore struct {
	mu       sync.RWMutex
	byIP     map[string]map[string]float64
	fallback map[string]float64

	// vecBySchema holds the interned vector form of every profile, one
	// cache per schema served (keyed by schema pointer identity, guarded
	// by mu like the maps). A cache is built once, the first time its
	// schema is seen; Put then maintains all caches incrementally, so the
	// request path never rebuilds and feed refreshes cost O(schemas), not
	// O(store). The cache count is bounded at maxSchemaCaches, evicting
	// oldest-built first (vecOrder), so a store outliving many retrained
	// scorers (each with a fresh schema pointer) cannot accrete dead
	// O(store) caches, and a retrain that replaces an old schema retires
	// the old cache before the live one.
	vecBySchema map[*Schema]*storeVectors
	vecOrder    []*Schema
}

// maxSchemaCaches bounds how many schemas' interned caches one store
// retains. A live schema evicted by churn simply rebuilds on next use.
const maxSchemaCaches = 4

var _ VectorSource = (*MapStore)(nil)

// storeVectors is the interned form of the store's maps for one schema:
// every profile pre-resolved to a flat vector plus its coverage mask, so
// the per-request cost is one map lookup and one copy.
type storeVectors struct {
	byIP     map[string]storeVec
	fallback storeVec
}

// storeVec is one interned profile: values in schema order and the bitmask
// of schema slots the profile actually covers.
type storeVec struct {
	v    []float64
	mask uint64
}

// NewMapStore returns a store with the given fallback profile for unknown
// IPs. The fallback must be non-nil: scoring an IP with no attributes at
// all is a configuration error the store surfaces early.
func NewMapStore(fallback map[string]float64) (*MapStore, error) {
	if fallback == nil {
		return nil, fmt.Errorf("features: map store requires a fallback profile")
	}
	return &MapStore{
		byIP:     make(map[string]map[string]float64),
		fallback: cloneAttrs(fallback),
	}, nil
}

// Put registers (or replaces) the attributes for ip, updating the interned
// vector caches in place.
func (s *MapStore) Put(ip string, attrs map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byIP[ip] = cloneAttrs(attrs)
	for schema, vecs := range s.vecBySchema {
		vecs.byIP[ip] = vectorize(attrs, schema)
	}
}

// Attributes looks up the attribute map registered for ip (the offline
// view of the store; serving reads go through AttributesVector). Known IPs
// get a private copy; unknown IPs share the store's immutable fallback
// profile, which callers must not mutate.
func (s *MapStore) Attributes(ip string, _ time.Time) map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if attrs, ok := s.byIP[ip]; ok {
		return cloneAttrs(attrs)
	}
	return s.fallback
}

// AttributesVector implements VectorSource: one lookup in the interned
// cache and one copy under the read lock, with zero allocations after the
// schema's cache is built (a one-time O(store) pass the first time each
// schema is seen).
func (s *MapStore) AttributesVector(dst []float64, schema *Schema, ip string, _ time.Time) uint64 {
	s.mu.RLock()
	vecs, ok := s.vecBySchema[schema]
	if !ok {
		s.mu.RUnlock()
		vecs = s.buildVectors(schema)
		s.mu.RLock()
	}
	e, ok := vecs.byIP[ip]
	if !ok {
		e = vecs.fallback
	}
	copy(dst, e.v)
	mask := e.mask
	s.mu.RUnlock()
	return mask
}

// buildVectors interns every profile for a schema seen for the first time.
// Under the write lock, so concurrent first-seers do the pass once each at
// worst and Put cannot interleave.
func (s *MapStore) buildVectors(schema *Schema) *storeVectors {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vecs, ok := s.vecBySchema[schema]; ok {
		return vecs
	}
	vecs := &storeVectors{
		byIP:     make(map[string]storeVec, len(s.byIP)),
		fallback: vectorize(s.fallback, schema),
	}
	for ip, attrs := range s.byIP {
		vecs.byIP[ip] = vectorize(attrs, schema)
	}
	if s.vecBySchema == nil {
		s.vecBySchema = make(map[*Schema]*storeVectors, 1)
	}
	for len(s.vecBySchema) >= maxSchemaCaches {
		oldest := s.vecOrder[0]
		s.vecOrder = s.vecOrder[1:]
		delete(s.vecBySchema, oldest)
	}
	s.vecBySchema[schema] = vecs
	s.vecOrder = append(s.vecOrder, schema)
	return vecs
}

// vectorize lays attrs out in schema order, recording which slots the
// profile covers.
func vectorize(attrs map[string]float64, schema *Schema) storeVec {
	e := storeVec{v: make([]float64, len(schema.names))}
	e.mask = fillFromMap(e.v, attrs, schema)
	return e
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

// Len reports the number of explicitly registered IPs.
func (s *MapStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byIP)
}

// Combined merges a static source with live tracker behavior: static
// attributes first, then behavioral attributes layered on top (behavioral
// names are "live_"-prefixed, so the two never collide in practice; on a
// genuine key collision the behavioral value wins, being fresher).
type Combined struct {
	static  VectorSource
	tracker *Tracker
}

var _ VectorSource = (*Combined)(nil)

// NewCombined builds the merged source. Both parts are required; use the
// parts directly when only one is wanted.
func NewCombined(static VectorSource, tracker *Tracker) (*Combined, error) {
	if static == nil || tracker == nil {
		return nil, fmt.Errorf("features: combined source requires static source and tracker")
	}
	return &Combined{static: static, tracker: tracker}, nil
}

// AttributesVector implements VectorSource: the static source fills first,
// then the tracker overlays its behavioral slots.
func (c *Combined) AttributesVector(dst []float64, schema *Schema, ip string, now time.Time) uint64 {
	mask := c.static.AttributesVector(dst, schema, ip, now)
	return mask | c.tracker.AttributesVector(dst, schema, ip, now)
}

func cloneAttrs(in map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
