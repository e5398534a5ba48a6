package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aipow"
	"aipow/internal/control"
	"aipow/internal/dataset"
	"aipow/internal/sim"
)

// stubScore gives every client the same mid-scale score.
func stubScore(map[string]float64) (float64, error) { return 5, nil }

const adminTestSpec = `
pipeline web
  scorer stub
  source tracker
  policy policy2
  observe trace(sample=1, ring=16)
`

// newTestAdmin builds a real gatekeeper (one traced pipeline, a few
// decisions driven through it) and the admin mux under test.
func newTestAdmin(t *testing.T, token string) (*http.ServeMux, *aipow.Gatekeeper, *aipow.EventLog) {
	t.Helper()
	key := []byte("0123456789abcdef0123456789abcdef")
	events := aipow.NewEventLog(0)
	reg, err := aipow.NewComponentRegistry(key, aipow.WithRegistryEvents(events.Append))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterScorer("stub", func(map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(stubScore)
	}); err != nil {
		t.Fatal(err)
	}
	dep, err := aipow.ParseDeployment(adminTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gk.Close() })
	p, ok := gk.Pipeline("web")
	if !ok {
		t.Fatal("pipeline web missing")
	}
	for range 3 {
		if _, err := p.Framework().Decide(aipow.RequestContext{IP: "10.0.0.1"}); err != nil {
			t.Fatal(err)
		}
	}
	proxyAuth, err := aipow.NewProxyAuth(aipow.DeriveProxyAuthKey(key))
	if err != nil {
		t.Fatal(err)
	}
	mux, err := newAdminMux(token, proxyAuth, gk, "node-test", events, true)
	if err != nil {
		t.Fatal(err)
	}
	return mux, gk, events
}

func get(t *testing.T, mux http.Handler, path, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestAdminContentTypes pins the Content-Type of every read endpoint, so
// a scraper or dashboard never has to sniff.
func TestAdminContentTypes(t *testing.T) {
	mux, _, _ := newTestAdmin(t, "")
	cases := []struct{ path, want string }{
		{"/stats", "application/json"},
		{"/spec", "application/json"},
		{"/spec/history", "application/json"},
		{"/trace", "application/json"},
		{"/events", "application/json"},
		{"/metrics", metricsContentType},
	}
	for _, tc := range cases {
		rec := get(t, mux, tc.path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", tc.path, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != tc.want {
			t.Errorf("GET %s Content-Type = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestAdminMetricsEndpoint validates the exposition output and checks the
// deployment's series made it out with pipeline and node labels.
func TestAdminMetricsEndpoint(t *testing.T) {
	mux, _, _ := newTestAdmin(t, "")
	rec := get(t, mux, "/metrics", "")
	body := rec.Body.String()
	if err := aipow.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`aipow_issued{pipeline="web",node="node-test"} 3`,
		`aipow_serving_latency_ms_count{pipeline="web",node="node-test",stage="decide"} 3`,
		`aipow_trace_sampled{pipeline="web",node="node-test"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestAdminTraceAndEventsAuth: with a token configured, /trace and
// /events refuse unauthenticated reads and serve authenticated ones.
func TestAdminTraceAndEventsAuth(t *testing.T) {
	mux, _, events := newTestAdmin(t, "sekrit")
	for _, path := range []string{"/trace", "/events"} {
		if rec := get(t, mux, path, ""); rec.Code != http.StatusUnauthorized {
			t.Errorf("GET %s unauthenticated = %d, want 401", path, rec.Code)
		}
		if rec := get(t, mux, path, "wrong"); rec.Code != http.StatusUnauthorized {
			t.Errorf("GET %s bad token = %d, want 401", path, rec.Code)
		}
	}

	rec := get(t, mux, "/trace", "sekrit")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /trace = %d, want 200", rec.Code)
	}
	var traces map[string][]aipow.TraceSample
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces["web"]) != 3 {
		t.Fatalf("trace snapshot has %d web samples, want 3", len(traces["web"]))
	}
	for _, s := range traces["web"] {
		if s.Kind != "decide" || s.Client == "" {
			t.Fatalf("trace sample = %+v, want a decide with a client hash", s)
		}
	}

	// The gatekeeper build appended spec.apply to the shared log.
	rec = get(t, mux, "/events", "sekrit")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /events = %d, want 200", rec.Code)
	}
	var evs []aipow.DefenseEvent
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Kind != aipow.EventSpecApply {
		t.Fatalf("events = %+v, want a leading spec.apply", evs)
	}
	if got := len(events.Snapshot()); got != len(evs) {
		t.Fatalf("event log holds %d events, served %d", got, len(evs))
	}
}

// TestAdminPprofMount: -pprof mounts the profile index; without the flag
// the path 404s.
func TestAdminPprofMount(t *testing.T) {
	mux, _, _ := newTestAdmin(t, "")
	if rec := get(t, mux, "/debug/pprof/", ""); rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", rec.Code)
	}

	key := []byte("0123456789abcdef0123456789abcdef")
	proxyAuth, err := aipow.NewProxyAuth(aipow.DeriveProxyAuthKey(key))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := aipow.NewComponentRegistry(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterScorer("stub", func(map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(stubScore)
	}); err != nil {
		t.Fatal(err)
	}
	dep, err := aipow.ParseDeployment(adminTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	bare, err := newAdminMux("", proxyAuth, gk, "", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, bare, "/debug/pprof/", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ without -pprof = %d, want 404", rec.Code)
	}
}

// TestRateScorerPipelineDecidesWithoutAllocating pins that the spec's
// `scorer rate(saturation=…)` rides the same allocation-free decide path
// as the trained model: it publishes a one-slot schema over the live
// request rate, which `source combined` fills from the tracker.
func TestRateScorerPipelineDecidesWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	store, err := aipow.NewMapStore(map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := buildRegistry([]byte("0123456789abcdef0123456789abcdef"), nil, store, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := aipow.ParseDeployment("pipeline web\n  scorer rate(saturation=5)\n  source combined\n  policy policy2\n")
	if err != nil {
		t.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gk.Close() })
	p, _ := gk.Pipeline("web")
	fw := p.Framework()

	const ip = "203.0.113.7"
	now := time.Now()
	for i := range 50 {
		if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/", At: now.Add(-time.Duration(i) * time.Millisecond)}); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := fw.Decide(aipow.RequestContext{IP: ip})
	if err != nil {
		t.Fatal(err)
	}
	if dec.ScoreErr != nil || dec.Score <= 0 {
		t.Fatalf("rate-scored decision = score %v err %v, want a positive rate score", dec.Score, dec.ScoreErr)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := fw.Decide(aipow.RequestContext{IP: ip}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Decide through scorer rate + source combined: %v allocs/op, want 0", allocs)
	}
}

// TestBootsEverySuiteDefense pins that every simulated defense is one
// powserver can deploy: each suite scenario's pipeline spec, wrapped in a
// catch-all deployment and round-tripped through its printed form, builds
// on powserver's registry and issues a challenge.
func TestBootsEverySuiteDefense(t *testing.T) {
	model, store, err := loadComponents("", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sim.DefaultSuite(1, 0.25) {
		t.Run(sc.Name, func(t *testing.T) {
			ps, err := sc.PipelineSpec()
			if err != nil {
				t.Fatal(err)
			}
			dep := &aipow.DeploymentSpec{
				Pipelines: []aipow.PipelineSpec{ps},
				Routes:    []aipow.RouteSpec{{PathPrefix: "/", Pipeline: ps.Name}},
			}
			buf, err := dep.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			printed, err := aipow.ParseDeployment(string(buf))
			if err != nil {
				t.Fatal(err)
			}
			reg, err := buildRegistry([]byte("0123456789abcdef0123456789abcdef"), model, store, "node-test", nil)
			if err != nil {
				t.Fatal(err)
			}
			gk, err := aipow.NewGatekeeper(reg, printed)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = gk.Close() })
			dec, err := gk.Route("/", "").Decide(aipow.RequestContext{IP: "203.0.113.7"})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Bypassed || dec.Challenge.Difficulty < 1 {
				t.Fatalf("decision = %+v, want a challenge", dec)
			}
		})
	}
}

// TestUnknownClientPricedByMedianBenignProfile pins powserver's fallback
// rule to the simulator's: a client the feed does not know is priced by
// the per-attribute median of the feed's benign rows. The feed here leads
// with its highest-scoring benign row, so a first-benign-row fallback
// would price the unknown client differently under policy2.
func TestUnknownClientPricedByMedianBenignProfile(t *testing.T) {
	feed, err := dataset.Generate(dataset.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := control.TrainFeedModel(feed, 1)
	if err != nil {
		t.Fatal(err)
	}
	top, topScore := -1, -1.0
	for i, s := range feed {
		if s.Malicious {
			continue
		}
		score, err := model.Score(s.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		if score > topScore {
			top, topScore = i, score
		}
	}
	feed[0], feed[top] = feed[top], feed[0]
	dir := t.TempDir()
	feedPath, modelPath := filepath.Join(dir, "feed.csv"), filepath.Join(dir, "model.json")
	writeWith(t, feedPath, func(w io.Writer) error { return dataset.WriteCSV(w, feed) })
	writeWith(t, modelPath, model.Save)

	// Boot the components the way main does.
	loaded, store, err := loadComponents(feedPath, modelPath)
	if err != nil {
		t.Fatal(err)
	}
	difficulty := func(store *aipow.MapStore) int {
		t.Helper()
		reg, err := buildRegistry([]byte("0123456789abcdef0123456789abcdef"), loaded, store, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := resolveDeployment("", "policy2", -1)
		if err != nil {
			t.Fatal(err)
		}
		gk, err := aipow.NewGatekeeper(reg, dep)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gk.Close() })
		// 10/8 is outside every generated feed.
		dec, err := gk.Route("/", "").Decide(aipow.RequestContext{IP: "10.0.0.1"})
		if err != nil {
			t.Fatal(err)
		}
		return dec.Challenge.Difficulty
	}
	fallbackStore := func(attrs map[string]float64) *aipow.MapStore {
		t.Helper()
		s, err := aipow.NewMapStore(attrs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	median := make(map[string]float64)
	for name := range feed[0].Attrs {
		var vals []float64
		for _, s := range feed {
			if !s.Malicious {
				vals = append(vals, s.Attrs[name])
			}
		}
		slices.Sort(vals)
		median[name] = vals[len(vals)/2]
	}
	want, first := difficulty(fallbackStore(median)), difficulty(fallbackStore(feed[0].Attrs))
	if want == first {
		t.Fatalf("the feed does not separate the rules: median and first benign row both price d=%d", want)
	}
	if got := difficulty(store); got != want {
		t.Fatalf("unknown client priced at d=%d, want the median benign profile's d=%d (first benign row: d=%d)", got, want, first)
	}
}

// writeWith creates path and fills it with write.
func writeWith(t *testing.T, path string, write func(io.Writer) error) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		t.Fatal(err)
	}
}
