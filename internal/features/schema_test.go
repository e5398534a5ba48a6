package features

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNewSchemaValidation(t *testing.T) {
	if s, err := NewSchema(); err != nil || s.Len() != 0 || s.FullMask() != 0 {
		t.Errorf("empty schema (a scorer reading no attributes) = %v, %v", s, err)
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := NewSchema("a", "b", "a"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	big := make([]string, MaxSchemaAttrs+1)
	for i := range big {
		big[i] = fmt.Sprintf("attr%d", i)
	}
	if _, err := NewSchema(big...); err == nil {
		t.Error("oversized schema accepted")
	}
	if _, err := NewSchema(big[:MaxSchemaAttrs]...); err != nil {
		t.Errorf("%d-attribute schema rejected: %v", MaxSchemaAttrs, err)
	}
}

func TestSchemaLayout(t *testing.T) {
	s, err := NewSchema("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want 3", s.Len())
	}
	if j, ok := s.Index("y"); !ok || j != 1 {
		t.Errorf("Index(y) = %d,%v, want 1,true", j, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index reported a missing attribute")
	}
	if s.Name(2) != "z" {
		t.Errorf("Name(2) = %q, want z", s.Name(2))
	}
	if got := s.FullMask(); got != 0b111 {
		t.Errorf("FullMask() = %b, want 111", got)
	}
	names := s.Names()
	names[0] = "mutated"
	if s.Name(0) != "x" {
		t.Error("Names() did not copy")
	}
	if len(s.NewVector()) != 3 {
		t.Error("NewVector length wrong")
	}
}

func TestSchemaFullMaskAt64(t *testing.T) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	s, err := NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	if s.FullMask() != ^uint64(0) {
		t.Errorf("64-attr FullMask = %x, want all ones", s.FullMask())
	}
}

func TestMapStoreAttributesVector(t *testing.T) {
	store, err := NewMapStore(map[string]float64{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	store.Put("1.2.3.4", map[string]float64{"a": 10, "b": 20})
	schema, err := NewSchema("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	dst := schema.NewVector()

	if mask := store.AttributesVector(dst, schema, "1.2.3.4", time.Time{}); mask != schema.FullMask() {
		t.Fatalf("known IP mask = %b, want full", mask)
	}
	if dst[0] != 10 || dst[1] != 20 {
		t.Fatalf("known IP vector = %v, want [10 20]", dst)
	}

	if mask := store.AttributesVector(dst, schema, "8.8.8.8", time.Time{}); mask != schema.FullMask() {
		t.Fatalf("fallback mask = %b, want full", mask)
	}
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("fallback vector = %v, want [1 2]", dst)
	}

	// Put replaces the row.
	store.Put("1.2.3.4", map[string]float64{"a": 99, "b": 100})
	store.AttributesVector(dst, schema, "1.2.3.4", time.Time{})
	if dst[0] != 99 {
		t.Fatalf("stale vector after Put: %v", dst)
	}

	// A profile missing schema attributes yields partial coverage, never a
	// silent zero-as-value.
	store.Put("5.6.7.8", map[string]float64{"a": 7})
	clear(dst)
	if mask := store.AttributesVector(dst, schema, "5.6.7.8", time.Time{}); mask == schema.FullMask() {
		t.Fatal("partial profile claimed full coverage")
	}
}

func TestMapStoreFallbackShared(t *testing.T) {
	store, err := NewMapStore(map[string]float64{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every miss must return the same underlying (read-only) map instead
	// of paying one clone per cold request.
	m1 := store.Attributes("198.18.0.1", time.Time{})
	m2 := store.Attributes("198.18.0.2", time.Time{})
	if fmt.Sprintf("%p", m1) != fmt.Sprintf("%p", m2) {
		t.Error("unknown-IP fallback is cloned per miss; want shared instance")
	}
}

func TestCombinedAttributesVector(t *testing.T) {
	store, err := NewMapStore(map[string]float64{"web_reputation": 80})
	if err != nil {
		t.Fatal(err)
	}
	store.Put("9.9.9.9", map[string]float64{"web_reputation": 15})
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = tr.Observe(RequestInfo{IP: "9.9.9.9", Path: "/login", At: at(i), Failed: true})
	}
	combined, err := NewCombined(store, tr)
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string{"web_reputation"}, behaviorAttrNames[:]...)
	schema, err := NewSchema(names...)
	if err != nil {
		t.Fatal(err)
	}
	dst := schema.NewVector()
	mask := combined.AttributesVector(dst, schema, "9.9.9.9", at(4))
	if mask != schema.FullMask() {
		t.Fatalf("combined mask = %b, want full %b", mask, schema.FullMask())
	}
	for name, want := range map[string]float64{"web_reputation": 15, AttrTotalRequests: 4, AttrFailRatio: 1} {
		if j, _ := schema.Index(name); dst[j] != want {
			t.Errorf("vector[%q] = %v, want %v", name, dst[j], want)
		}
	}
}

// staticOnlySource is a map-shaped source, entering through SourceFromMap.
type staticOnlySource struct{}

func (staticOnlySource) Attributes(string, time.Time) map[string]float64 {
	return map[string]float64{"s": 1}
}

// TestSourceFromMap pins the source adapter: the map's attributes land in
// their schema slots with exactly their coverage, composable under
// Combined, and a schema attribute the map lacks stays uncovered.
func TestSourceFromMap(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	combined, err := NewCombined(SourceFromMap(staticOnlySource{}), tr)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := NewSchema("s", AttrRequestRate, "absent")
	if err != nil {
		t.Fatal(err)
	}
	dst := schema.NewVector()
	mask := combined.AttributesVector(dst, schema, "1.1.1.1", at(0))
	if mask != 0b011 || dst[0] != 1 {
		t.Fatalf("mask = %03b, dst = %v; want s and the live rate covered, absent not", mask, dst)
	}
	if err := schema.Missing(mask); !errors.Is(err, ErrMissingAttr) || !strings.Contains(err.Error(), `"absent"`) {
		t.Errorf("Missing(%03b) = %v, want ErrMissingAttr naming \"absent\"", mask, err)
	}
}

// TestMapScorerAndScoreAttrs pins the scorer adapter and the offline
// helper: the function sees exactly the declared attributes by name, and
// ScoreAttrs refuses a map lacking one, by name.
func TestMapScorerAndScoreAttrs(t *testing.T) {
	s, err := NewMapScorer(func(attrs map[string]float64) (float64, error) {
		if len(attrs) != 2 {
			return 0, fmt.Errorf("saw %v", attrs)
		}
		return attrs["a"] + 10*attrs["b"], nil
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.ScoreVector([]float64{1, 2}); err != nil || got != 21 {
		t.Errorf("ScoreVector = %v, %v; want 21", got, err)
	}
	if got, err := ScoreAttrs(s, map[string]float64{"a": 3, "b": 0.5, "extra": 9}); err != nil || got != 8 {
		t.Errorf("ScoreAttrs = %v, %v; want 8", got, err)
	}
	if _, err := ScoreAttrs(s, map[string]float64{"a": 3}); !errors.Is(err, ErrMissingAttr) || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("ScoreAttrs without b = %v, want ErrMissingAttr naming it", err)
	}
	if _, err := NewMapScorer(nil, "a"); err == nil {
		t.Error("nil scoring function accepted")
	}
	if _, err := NewMapScorer(func(map[string]float64) (float64, error) { return 0, nil }, "a", "a"); err == nil {
		t.Error("duplicate declared attribute accepted")
	}
}

// TestTrackerShardClamp guards the pre-round clamp: an absurd shard
// request must settle at the cap instead of spinning in ceilPow2.
func TestTrackerShardClamp(t *testing.T) {
	tr, err := NewTracker(WithShards(1 << 62))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.shards); got != 1<<14 {
		t.Errorf("shards = %d, want cap %d", got, 1<<14)
	}
}

// TestMapStoreMultiSchema asserts one store can serve two schemas (e.g.
// two frameworks sharing a feed) without the layouts evicting each other.
func TestMapStoreMultiSchema(t *testing.T) {
	store, err := NewMapStore(map[string]float64{"a": 1, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSchema("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSchema("b")
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := s1.NewVector(), s2.NewVector()
	for i := 0; i < 3; i++ { // alternate; both layouts must persist
		if mask := store.AttributesVector(d1, s1, "8.8.8.8", time.Time{}); mask != s1.FullMask() {
			t.Fatalf("schema1 mask = %b", mask)
		}
		if mask := store.AttributesVector(d2, s2, "8.8.8.8", time.Time{}); mask != s2.FullMask() {
			t.Fatalf("schema2 mask = %b", mask)
		}
	}
	if d1[0] != 1 || d1[1] != 2 || d2[0] != 2 {
		t.Fatalf("vectors = %v / %v, want [1 2] / [2]", d1, d2)
	}
	// A Put reaches both schemas.
	store.Put("7.7.7.7", map[string]float64{"a": 5, "b": 6})
	store.AttributesVector(d1, s1, "7.7.7.7", time.Time{})
	store.AttributesVector(d2, s2, "7.7.7.7", time.Time{})
	if d1[0] != 5 || d2[0] != 6 {
		t.Fatalf("post-Put vectors = %v / %v, want [5 6] / [6]", d1, d2)
	}
}

// TestTrackerOverShardingKeepsBound asserts that requesting more shards
// than capacity cannot inflate the memory bound.
func TestTrackerOverShardingKeepsBound(t *testing.T) {
	tr, err := NewTracker(WithCapacity(100), WithShards(1024))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.shards); got > 100 {
		t.Fatalf("shards = %d, want ≤ capacity 100", got)
	}
	for i := 0; i < 5000; i++ {
		_ = tr.Observe(RequestInfo{IP: fmt.Sprintf("10.1.%d.%d", i/250, i%250), Path: "/", At: at(i)})
	}
	if got := tr.StatsSnapshot().Entries; got > 100 {
		t.Fatalf("Entries = %d, want ≤ capacity 100", got)
	}
}
