package features

import (
	"testing"
	"time"
)

func TestNewMapStoreRequiresFallback(t *testing.T) {
	if _, err := NewMapStore(nil); err == nil {
		t.Fatal("nil fallback accepted")
	}
}

func TestMapStoreLookupAndFallback(t *testing.T) {
	s, err := NewMapStore(map[string]float64{"spam_ratio": 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("1.1.1.1", map[string]float64{"spam_ratio": 0.9})

	if got := s.Attributes("1.1.1.1", time.Time{})["spam_ratio"]; got != 0.9 {
		t.Errorf("known IP spam_ratio = %v, want 0.9", got)
	}
	if got := s.Attributes("8.8.8.8", time.Time{})["spam_ratio"]; got != 0.01 {
		t.Errorf("unknown IP spam_ratio = %v, want fallback 0.01", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len() = %d, want 1", s.Len())
	}
}

func TestMapStoreReturnsCopies(t *testing.T) {
	s, err := NewMapStore(map[string]float64{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	src := map[string]float64{"x": 5}
	s.Put("a", src)
	src["x"] = 99 // caller mutates after Put
	if got := s.Attributes("a", time.Time{})["x"]; got != 5 {
		t.Fatalf("Put did not copy: got %v", got)
	}
	out := s.Attributes("a", time.Time{})
	out["x"] = 123 // caller mutates returned map
	if got := s.Attributes("a", time.Time{})["x"]; got != 5 {
		t.Fatalf("Attributes did not copy: got %v", got)
	}
}

func TestCombinedValidation(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCombined(nil, tr); err == nil {
		t.Error("nil static accepted")
	}
	store, err := NewMapStore(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCombined(store, nil); err == nil {
		t.Error("nil tracker accepted")
	}
}

func TestCombinedMergesStaticAndLive(t *testing.T) {
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
		if err := tr.Observe(RequestInfo{IP: "9.9.9.9", Path: "/login", At: at(i), Failed: true}); err != nil {
			t.Fatal(err)
		}
	}
	combined, err := NewCombined(store, tr)
	if err != nil {
		t.Fatal(err)
	}
	attrs := attrsOf(combined, "9.9.9.9", at(4), "web_reputation")
	if attrs["web_reputation"] != 15 {
		t.Errorf("static attr lost: %v", attrs["web_reputation"])
	}
	if attrs[AttrTotalRequests] != 4 {
		t.Errorf("live attr lost: %v", attrs[AttrTotalRequests])
	}
	if attrs[AttrFailRatio] != 1 {
		t.Errorf("fail ratio = %v, want 1", attrs[AttrFailRatio])
	}
}

// TestMapStoreFallbackSharedAndUnmutated is the ROADMAP's audit pin on the
// documented contract change: Attributes returns one shared read-only
// fallback map for every unknown IP (no per-request clone), and no
// framework path — the Combined fill — mutates it. A future
// caller writing into the returned map would corrupt every unknown
// client's profile at once; this test fails the moment the shared
// fallback's contents drift.
func TestMapStoreFallbackSharedAndUnmutated(t *testing.T) {
	fallback := map[string]float64{"x": 1, "y": 2}
	s, err := NewMapStore(fallback)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Attributes("203.0.113.1", at(0))
	b := s.Attributes("203.0.113.2", at(0))
	// Shared: both unknown IPs see the same map value (the whole point of
	// the no-clone contract). Maps are not comparable, so pin sharing by
	// writing through one and reading the other — then restore.
	a["__probe__"] = 1
	if _, shared := b["__probe__"]; !shared {
		t.Fatal("unknown-IP fallback is cloned per call; the shared-map contract changed")
	}
	delete(a, "__probe__")

	// The store's own constructor input is insulated from the caller.
	fallback["x"] = 99
	if got := s.Attributes("203.0.113.3", at(0))["x"]; got != 1 {
		t.Errorf("mutating the constructor argument reached the store: x = %v", got)
	}

	// Drive the paths that receive the shared map and assert no drift.
	snapshot := make(map[string]float64, len(a))
	for k, v := range a {
		snapshot[k] = v
	}
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	combined, err := NewCombined(s, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(RequestInfo{IP: "203.0.113.9", Path: "/p", At: at(0)}); err != nil {
		t.Fatal(err)
	}
	if got := attrsOf(combined, "203.0.113.9", at(1), "x", "y"); got["x"] != 1 || got["y"] != 2 {
		t.Errorf("combined fill of an unknown IP = %v, want the fallback profile", got)
	}
	after := s.Attributes("203.0.113.4", at(1))
	if len(after) != len(snapshot) {
		t.Fatalf("fallback gained/lost keys: %v vs %v", after, snapshot)
	}
	for k, v := range snapshot {
		if after[k] != v {
			t.Errorf("fallback[%q] drifted: %v != %v", k, after[k], v)
		}
	}
}
