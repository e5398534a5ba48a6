package control

import (
	"strings"
	"testing"
	"time"

	"aipow/internal/features"
)

func TestWindowSpecParsing(t *testing.T) {
	dep, err := ParseDeployment(`
pipeline login
  scorer threat
  policy policy2
  window 10s
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(dep.Pipelines[0].TrackerWindow); got != 10*time.Second {
		t.Fatalf("window = %v, want 10s", got)
	}

	// JSON round-trips through the canonical form.
	buf, err := dep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDeployment(string(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !specEqual(dep.Pipelines[0], back.Pipelines[0]) {
		t.Fatalf("window lost in JSON round-trip: %+v vs %+v", dep.Pipelines[0], back.Pipelines[0])
	}

	for _, bad := range []string{
		"pipeline p\n  scorer s\n  policy policy2\n  window nope\n",
		"pipeline p\n  scorer s\n  policy policy2\n  window 5s\n  window 6s\n", // duplicate
		"pipeline p\n  scorer s\n  policy policy2\n  window -5s\n",
	} {
		if _, err := ParseDeployment(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestWindowIsNotHotSwappable(t *testing.T) {
	a := PipelineSpec{Name: "p", Scorer: "s", Policy: "policy2"}
	b := a
	b.TrackerWindow = Duration(10 * time.Second)
	if err := a.swappableEqual(b); err == nil {
		t.Fatal("window change passed swappableEqual")
	}
	if specEqual(a, b) {
		t.Fatal("specEqual ignores the window")
	}
}

func TestPerWindowTrackersSharedByEqualWindows(t *testing.T) {
	reg := newTestRegistry(t)
	base := PipelineSpec{Scorer: "threat", Policy: "policy2"}
	build := func(name string, window time.Duration) *Pipeline {
		ps := base
		ps.Name = name
		ps.TrackerWindow = Duration(window)
		p, err := reg.Build(ps)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		return p
	}
	def1 := build("default-1", 0)
	def2 := build("default-2", 0)
	short1 := build("short-1", 10*time.Second)
	short2 := build("short-2", 10*time.Second)
	long1 := build("long-1", 5*time.Minute)

	if def1.tracker != reg.Tracker() || def2.tracker != reg.Tracker() {
		t.Error("zero-window pipelines do not share the registry default tracker")
	}
	if short1.tracker == reg.Tracker() {
		t.Error("windowed pipeline got the default tracker")
	}
	if short1.tracker != short2.tracker {
		t.Error("equal windows do not share one tracker")
	}
	if long1.tracker == short1.tracker {
		t.Error("different windows share one tracker")
	}

	// Rebuilding under the same window keeps the same tracker (behavioral
	// history survives reconfiguration).
	short3 := build("short-3", 10*time.Second)
	if short3.tracker != short1.tracker {
		t.Error("same-window rebuild lost the shared tracker")
	}
}

func TestWindowCountBounded(t *testing.T) {
	reg := newTestRegistry(t)
	for i := 0; i < maxTrackerWindows; i++ {
		if _, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(time.Duration(i+1) * time.Second)}); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	newest, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(time.Duration(maxTrackerWindows) * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	// Window churn past the bound FIFO-evicts the oldest share entry
	// instead of failing the apply…
	over, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(time.Hour)})
	if err != nil {
		t.Fatalf("window churn past the bound failed: %v", err)
	}
	if len(reg.windowed) != maxTrackerWindows {
		t.Fatalf("share map holds %d windows, want bound %d", len(reg.windowed), maxTrackerWindows)
	}
	// …so the evicted (oldest) window rebuilds fresh while recent windows
	// keep their shared tracker.
	fresh, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == over {
		t.Fatal("evicted window handed another window's tracker")
	}
	again, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(time.Duration(maxTrackerWindows) * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if again != newest {
		t.Fatal("recent window lost its shared tracker to FIFO churn")
	}
}

// TestRedeemHalfLifeTrackerInheritsWindow pins that a per-key tracker
// keeps the shared tracker's rate window: a redeem(half-life=…) pipeline
// over a 20 s / 8-bucket tracker rates over 20 s in 8 buckets, not over
// the tracker package's 30 s / 10-bucket default.
func TestRedeemHalfLifeTrackerInheritsWindow(t *testing.T) {
	shared, err := features.NewTracker(features.WithWindow(20*time.Second, 8))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(testKey, WithRegistryTracker(shared))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := ParseDeployment("pipeline p\n scorer dabr\n policy policy2\n redeem(half-life=10s)\n")
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := reg.trackerFor(dep.Pipelines[0])
	if err != nil {
		t.Fatal(err)
	}
	if tracker == shared {
		t.Fatal("half-life pipeline got the shared tracker")
	}
	if span, buckets := tracker.Window(); span != 20*time.Second || buckets != 8 {
		t.Errorf("window %v / %d buckets, want the shared 20s / 8", span, buckets)
	}
	if got := tracker.EvidenceHalfLife(); got != 10*time.Second {
		t.Errorf("half-life %v, want the declared 10s", got)
	}
}

// TestWindowedTrackerInheritsSizing pins that a per-window tracker keeps
// the shared tracker's capacity, evidence half-life and bucket count:
// `window` changes the span, nothing else.
func TestWindowedTrackerInheritsSizing(t *testing.T) {
	shared, err := features.NewTracker(
		features.WithCapacity(1234),
		features.WithEvidenceHalfLife(7*time.Minute),
		features.WithWindow(time.Minute, 6),
	)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(testKey, WithRegistryTracker(shared))
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := reg.trackerFor(PipelineSpec{TrackerWindow: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Capacity() != shared.Capacity() {
		t.Errorf("capacity %d, want inherited %d", windowed.Capacity(), shared.Capacity())
	}
	if windowed.EvidenceHalfLife() != shared.EvidenceHalfLife() {
		t.Errorf("half-life %v, want inherited %v", windowed.EvidenceHalfLife(), shared.EvidenceHalfLife())
	}
	if span, buckets := windowed.Window(); span != 10*time.Second || buckets != 6 {
		t.Errorf("window %v / %d buckets, want the declared 10s over the inherited 6", span, buckets)
	}
}

func TestGatekeeperWindowedPipelines(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment(`
pipeline web
  scorer threat
  policy policy2
  source store
pipeline login
  scorer threat
  policy policy2
  source store
  window 10s
route / web
route /login login
`)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	web, _ := gk.Pipeline("web")
	login, _ := gk.Pipeline("login")
	if web.tracker == login.tracker {
		t.Fatal("windowed pipeline shares the default tracker")
	}

	// A window change is a rebuild, not a hot-swap — but through the
	// gatekeeper it applies cleanly and lands on the right tracker.
	dep2, err := ParseDeployment(`
pipeline web
  scorer threat
  policy policy2
  source store
pipeline login
  scorer threat
  policy policy2
  source store
  window 30s
route / web
route /login login
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.Apply(dep2); err != nil {
		t.Fatal(err)
	}
	login2, _ := gk.Pipeline("login")
	if login2 == login {
		t.Fatal("window change did not rebuild the pipeline")
	}
	if login2.tracker == login.tracker {
		t.Fatal("rebuilt pipeline kept the old window's tracker")
	}
	// Direct Pipeline.Apply with a changed window is rejected.
	ps := login2.Spec()
	ps.TrackerWindow = Duration(40 * time.Second)
	if err := login2.Apply(ps); err == nil || !strings.Contains(err.Error(), "not hot-swappable") {
		t.Fatalf("window change hot-swapped: %v", err)
	}
}
