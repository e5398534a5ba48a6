package features

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"
)

// MapStore is a static attribute source — the shape of a Talos-style feed
// snapshot — with a fallback profile for IPs absent from the feed. It is
// one row-major table: a map from IP to row, every row's values in one
// []float64 with the columns in attribute-name order, a presence bitset
// per row, and the fallback profile as row 0. A row of w attributes costs
// 8w bytes of values, 8⌈w/64⌉ bytes of presence bits, and its IP's map
// entry and key: about 150 B for a 10-attribute feed.
//
// A read for a schema goes through a small cached layout from columns to
// slots. A schema over the sorted attribute names (the reputation
// model's) maps column j to slot j, so its fill is one copy and the row's
// presence bits.
//
// MapStore is safe for concurrent use.
type MapStore struct {
	mu      sync.RWMutex
	rows    map[string]int32 // IP → row
	names   []string         // the columns, sorted
	vals    []float64        // row r at vals[r*len(names):], 0 where absent
	present []uint64         // row r's presence bits at present[r*words:]
	words   int              // presence words per row, ⌈len(names)/64⌉

	// fallback is the fallback profile as a map, shared by Attributes.
	fallback map[string]float64

	// layouts is reset whenever a Put adds a column, under the write
	// lock, so a layout read under the read lock matches the columns.
	layouts layoutCache
}

// NewMapStore returns a store with the given fallback profile for unknown
// IPs. The fallback must be non-nil: scoring an IP with no attributes at
// all is a configuration error the store surfaces early.
func NewMapStore(fallback map[string]float64) (*MapStore, error) {
	if fallback == nil {
		return nil, fmt.Errorf("features: map store requires a fallback profile")
	}
	s := &MapStore{rows: make(map[string]int32), fallback: maps.Clone(fallback)}
	s.setRow(0, fallback)
	return s, nil
}

// Put registers (or wholly replaces) the attributes for ip. An attribute
// name the store has not seen adds a column, which re-lays out the table.
func (s *MapStore) Put(ip string, attrs map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rows[ip]
	if !ok {
		r = int32(len(s.rows) + 1)
		s.rows[ip] = r
		s.vals = append(s.vals, make([]float64, len(s.names))...)
		s.present = append(s.present, make([]uint64, s.words)...)
	}
	s.setRow(int(r), attrs)
}

// setRow replaces row r with attrs, first adding a column for every name
// of attrs the table lacks.
func (s *MapStore) setRow(r int, attrs map[string]float64) {
	s.addColumns(attrs)
	clear(s.vals[r*len(s.names) : (r+1)*len(s.names)])
	clear(s.present[r*s.words : (r+1)*s.words])
	for name, v := range attrs {
		c, _ := slices.BinarySearch(s.names, name)
		s.set(r, c, v)
	}
}

// addColumns copies every row into a table with a column for each name
// of attrs the table lacks.
func (s *MapStore) addColumns(attrs map[string]float64) {
	var added []string
	for name := range attrs {
		if _, ok := slices.BinarySearch(s.names, name); !ok {
			added = append(added, name)
		}
	}
	if len(added) == 0 {
		return
	}
	names := slices.Concat(s.names, added)
	slices.Sort(names)
	old, oldVals, oldPresent, oldWords := s.names, s.vals, s.present, s.words
	n := len(s.rows) + 1
	s.names, s.words = names, (len(names)+63)/64
	s.vals, s.present = make([]float64, n*len(names)), make([]uint64, n*s.words)
	for c, name := range old {
		to, _ := slices.BinarySearch(names, name)
		for r := 0; r < n; r++ {
			if oldPresent[r*oldWords+c>>6]&(1<<(c&63)) != 0 {
				s.set(r, to, oldVals[r*len(old)+c])
			}
		}
	}
	s.layouts.reset()
}

// set stores v at row r, column c.
func (s *MapStore) set(r, c int, v float64) {
	s.vals[r*len(s.names)+c] = v
	s.present[r*s.words+c>>6] |= 1 << (c & 63)
}

// Attributes looks up the attribute map registered for ip (the offline
// view of the store; serving reads go through AttributesVector). Known IPs
// get a private copy; unknown IPs share the store's immutable fallback
// profile, which callers must not mutate.
func (s *MapStore) Attributes(ip string, _ time.Time) map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rows[ip]
	if !ok {
		return s.fallback
	}
	out := make(map[string]float64, len(s.names))
	for c, name := range s.names {
		if s.present[int(r)*s.words+c>>6]&(1<<(c&63)) != 0 {
			out[name] = s.vals[int(r)*len(s.names)+c]
		}
	}
	return out
}

// AttributesVector implements VectorSource: one row lookup and one fill
// under the read lock, allocating nothing once the schema's layout is
// cached.
func (s *MapStore) AttributesVector(dst []float64, schema *Schema, ip string, _ time.Time) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fill(dst, s.layouts.get(schema, s.names), int(s.rows[ip]))
}

// fill writes row r (the fallback row 0 for an unknown IP) into dst
// through l and returns the coverage mask.
func (s *MapStore) fill(dst []float64, l *layout, r int) uint64 {
	vals := s.vals[r*len(s.names) : (r+1)*len(s.names)]
	present := s.present[r*s.words : (r+1)*s.words]
	if l.identity {
		copy(dst, vals[:len(l.schema.names)])
		return present[0] & l.schema.full
	}
	var mask uint64
	for c, j := range l.slots {
		if j >= 0 { // an absent cell holds 0, which dst already does
			dst[j] = vals[c]
			mask |= present[c>>6] >> (c & 63) & 1 << j
		}
	}
	return mask
}

// Len reports the number of explicitly registered IPs.
func (s *MapStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

// Combined merges a static source with live tracker behavior: static
// attributes first, then behavioral attributes layered on top (behavioral
// names are "live_"-prefixed, so the two never collide in practice; on a
// genuine key collision the behavioral value wins, being fresher).
type Combined struct {
	static  VectorSource
	tracker *Tracker
}

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
