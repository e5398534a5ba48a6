package features

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSchemaAttrs is the largest attribute count a Schema supports. Slot
// coverage is tracked with a uint64 bitmask, so a schema holds at most 64
// attributes; a model with more cannot serve.
const MaxSchemaAttrs = 64

// Schema is an immutable, interned attribute layout: a fixed ordering of
// attribute names with O(1) name→index lookup. It lets the serving path
// represent a client's attributes as a flat []float64 ("vector") indexed
// by slot instead of allocating a map[string]float64 per request.
//
// A Schema is typically owned by the scorer (its canonical attribute
// order) and shared by reference with every source that fills vectors for
// it; sources key their per-schema layouts on the pointer identity.
type Schema struct {
	names []string
	index map[string]int
	full  uint64
}

// NewSchema builds a schema over the given attribute names, in order.
// Names must be non-empty, unique, and at most MaxSchemaAttrs in number;
// no names at all is the layout of a scorer that reads no attributes.
func NewSchema(names ...string) (*Schema, error) {
	if len(names) > MaxSchemaAttrs {
		return nil, fmt.Errorf("features: schema holds at most %d attributes, got %d",
			MaxSchemaAttrs, len(names))
	}
	s := &Schema{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, name := range s.names {
		if name == "" {
			return nil, fmt.Errorf("features: schema attribute %d is empty", i)
		}
		if _, dup := s.index[name]; dup {
			return nil, fmt.Errorf("features: duplicate schema attribute %q", name)
		}
		s.index[name] = i
	}
	if len(names) == MaxSchemaAttrs {
		s.full = ^uint64(0)
	} else {
		s.full = uint64(1)<<uint(len(names)) - 1
	}
	return s, nil
}

// Len reports the number of attributes in the schema.
func (s *Schema) Len() int { return len(s.names) }

// Name reports the attribute name at slot i.
func (s *Schema) Name(i int) string { return s.names[i] }

// Names returns the attribute order as a copy.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Index reports the slot of name, and whether the schema contains it.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// FullMask is the coverage bitmask with every slot set; a VectorSource
// that returns it from AttributesVector produced every attribute.
func (s *Schema) FullMask() uint64 { return s.full }

// layout maps a source's columns onto one schema's slots: slots[c] is
// column c's slot, -1 where the schema lacks the column, and mask holds
// the slots some column fills. identity marks a non-empty schema whose
// slot j is column j for every slot, so a row's prefix fills it as is.
type layout struct {
	schema   *Schema
	slots    []int
	mask     uint64
	identity bool
}

func newLayout(schema *Schema, columns []string) *layout {
	n := len(schema.names)
	l := &layout{schema: schema, slots: make([]int, len(columns)), identity: n > 0 && n <= len(columns)}
	for c, name := range columns {
		l.slots[c] = -1
		if j, ok := schema.index[name]; ok {
			l.slots[c], l.mask = j, l.mask|1<<j
		}
		l.identity = l.identity && (c >= n || l.slots[c] == c)
	}
	return l
}

// scatter writes each column of row into dst at its slot.
func (l *layout) scatter(dst, row []float64) {
	for c, j := range l.slots {
		if j >= 0 {
			dst[j] = row[c]
		}
	}
}

// layoutCache holds a source's layout for each schema it serves, keyed
// by schema pointer identity. The published slice is immutable, so a
// lookup is one atomic load and a scan of at most maxLayouts entries; mu
// serializes the copy-on-write path that adds a schema seen for the
// first time, which evicts the oldest layout once the cache is full. The
// bound keeps a source that outlives many retrained scorers (each
// publishing a fresh schema) from accreting dead layouts; an evicted live
// schema just resolves again.
type layoutCache struct {
	mu   sync.Mutex
	list atomic.Value // []*layout
}

// maxLayouts bounds one source's layout cache, well above any realistic
// count of pipelines with distinct scorer schemas on one source.
const maxLayouts = 16

// get returns schema's layout over columns, resolving it the first time
// schema is seen. A source whose columns change resets the cache.
func (c *layoutCache) get(schema *Schema, columns []string) *layout {
	if l := c.find(schema); l != nil {
		return l
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.find(schema); l != nil { // lost the race to another resolver
		return l
	}
	list, _ := c.list.Load().([]*layout)
	// Full slice expression: the append copies, never writing the
	// published array.
	list = append(list[max(0, len(list)-maxLayouts+1):len(list):len(list)], newLayout(schema, columns))
	c.list.Store(list)
	return list[len(list)-1]
}

func (c *layoutCache) find(schema *Schema) *layout {
	list, _ := c.list.Load().([]*layout)
	for _, l := range list {
		if l.schema == schema {
			return l
		}
	}
	return nil
}

// reset drops every cached layout. The caller must exclude concurrent
// gets, whose layouts the reset invalidates.
func (c *layoutCache) reset() { c.list.Store([]*layout(nil)) }

// NewVector allocates a zeroed vector with one slot per attribute.
func (s *Schema) NewVector() []float64 { return make([]float64, len(s.names)) }

// ErrMissingAttr reports attributes a scorer's schema demands that its
// input did not supply — a source whose coverage mask fell short on the
// serving path, or an attribute map lacking a key offline.
var ErrMissingAttr = errors.New("features: missing attribute")

// Missing names the schema slots absent from mask as an error wrapping
// ErrMissingAttr. Callers invoke it only once they know mask is short of
// FullMask, so the allocation stays off the covered path.
func (s *Schema) Missing(mask uint64) error {
	var missing []string
	for i, name := range s.names {
		if mask&(1<<uint(i)) == 0 {
			missing = append(missing, name)
		}
	}
	return fmt.Errorf("%w: %q", ErrMissingAttr, missing)
}

// VectorSource is the framework's attribute-source contract: the source
// writes a client's attribute values into a caller-owned vector laid out
// by the scorer's Schema, so the request path builds no map. Map-shaped
// sources enter through SourceFromMap.
type VectorSource interface {
	// AttributesVector writes ip's attributes into dst, which must hold
	// schema.Len() zero-initialized elements, and returns the bitmask of
	// schema slots it produced (bit j set ⇒ dst[j] written). dst is
	// scorable only when the mask equals schema.FullMask(); the framework
	// fails a short row closed, naming the slots through Schema.Missing.
	AttributesVector(dst []float64, schema *Schema, ip string, now time.Time) uint64
}

// VectorScorer is the framework's AI-model contract: the scorer publishes
// the attribute layout it expects and maps flat vectors in that layout to
// a reputation score in [0, 10] (higher = less trustworthy). Map-shaped
// scoring functions enter through NewMapScorer.
type VectorScorer interface {
	// Schema reports the attribute layout ScoreVector expects. A scorer
	// that cannot publish one (more than MaxSchemaAttrs attributes)
	// returns nil and is refused by core.New.
	Schema() *Schema

	// ScoreVector scores a raw-unit vector laid out in Schema order. The
	// scorer may use v as scratch space; its contents are unspecified on
	// return.
	ScoreVector(v []float64) (float64, error)
}
