package control

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

// threatScorer scores the "threat" attribute, offset by a spec parameter.
func threatScorer(offset float64) (features.VectorScorer, error) {
	return features.NewMapScorer(func(attrs map[string]float64) (float64, error) {
		return attrs["threat"] + offset, nil
	}, "threat")
}

// newTestRegistry builds a registry with a "threat" scorer and a "store"
// source over a fixed MapStore.
func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterScorer("threat", func(params map[string]float64) (features.VectorScorer, error) {
		for k := range params {
			if k != "offset" {
				return nil, errors.New("threat takes only offset=<n>")
			}
		}
		return threatScorer(params["offset"])
	}); err != nil {
		t.Fatal(err)
	}
	store, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	store.Put("10.0.0.1", map[string]float64{"threat": 0})
	store.Put("10.0.0.9", map[string]float64{"threat": 10})
	if err := reg.RegisterSource("store", func(params map[string]float64, _ *features.Tracker) (features.VectorSource, error) {
		if len(params) != 0 {
			return nil, errors.New("store takes no parameters")
		}
		return store, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func decideDifficulty(t *testing.T, fw *core.Framework, ip string) int {
	t.Helper()
	dec, err := fw.Decide(core.RequestContext{IP: ip})
	if err != nil {
		t.Fatal(err)
	}
	if dec.ScoreErr != nil {
		t.Fatalf("decide %s: score error %v", ip, dec.ScoreErr)
	}
	return dec.Difficulty
}

func TestRegistryBuildErrors(t *testing.T) {
	reg := newTestRegistry(t)
	cases := []struct {
		name    string
		spec    PipelineSpec
		wantErr string
	}{
		{"unknown scorer", PipelineSpec{Name: "p", Scorer: "nope", Policy: "policy2"}, "unknown scorer"},
		{"unknown scorer param", PipelineSpec{Name: "p", Scorer: "threat(wat=1)", Policy: "policy2"}, "threat takes only offset"},
		{"bad scorer spec", PipelineSpec{Name: "p", Scorer: "threat(", Policy: "policy2"}, "unbalanced parentheses"},
		{"unknown policy", PipelineSpec{Name: "p", Scorer: "threat", Policy: "nope"}, "unknown policy"},
		{"bad policy param", PipelineSpec{Name: "p", Scorer: "threat", Policy: "policy3(wat=1)"}, "unknown parameter"},
		{"bad inline rules", PipelineSpec{Name: "p", Scorer: "threat", PolicyRules: "when score > 5 use 9"}, "missing required 'default'"},
		{"unknown source", PipelineSpec{Name: "p", Scorer: "threat", Policy: "policy2", Source: "nope"}, "unknown source"},
		{"source param", PipelineSpec{Name: "p", Scorer: "threat", Policy: "policy2", Source: "tracker(x=1)"}, "unknown parameter"},
		{"over-protocol difficulty", PipelineSpec{Name: "p", Scorer: "threat", Policy: "policy2", MaxDifficulty: 500}, "outside protocol range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := reg.Build(tc.spec)
			if err == nil {
				t.Fatalf("built %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := NewRegistry(nil); err == nil {
		t.Error("registry without key accepted")
	}
}

func TestPipelineApplyHotSwap(t *testing.T) {
	reg := newTestRegistry(t)
	spec := PipelineSpec{Name: "p", Scorer: "threat", Policy: "fixed(difficulty=3)", Source: "store"}
	p, err := reg.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	fw := p.Framework()
	if d := decideDifficulty(t, fw, "10.0.0.9"); d != 3 {
		t.Fatalf("initial difficulty = %d, want 3", d)
	}

	next := spec
	next.Policy = "fixed(difficulty=12)"
	next.Scorer = "threat(offset=1)"
	if err := p.Apply(next); err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, fw, "10.0.0.9"); d != 12 {
		t.Fatalf("post-apply difficulty = %d, want 12 (framework pointer must stay live)", d)
	}
	if p.Spec().Policy != "fixed(difficulty=12)" {
		t.Fatalf("spec not updated: %+v", p.Spec())
	}

	// Non-swappable change rejected, config untouched.
	bad := next
	bad.TTL = Duration(time.Hour)
	if err := p.Apply(bad); err == nil || !strings.Contains(err.Error(), "not hot-swappable") {
		t.Fatalf("ttl change: %v", err)
	}
	rename := next
	rename.Name = "q"
	if err := p.Apply(rename); err == nil || !strings.Contains(err.Error(), "renames") {
		t.Fatalf("rename: %v", err)
	}
	// Broken component spec rejected atomically.
	broken := next
	broken.Scorer = "nope"
	if err := p.Apply(broken); err == nil {
		t.Fatal("broken apply accepted")
	}
	if d := decideDifficulty(t, fw, "10.0.0.9"); d != 12 {
		t.Fatalf("failed applies disturbed the pipeline: d=%d", d)
	}
}

// gkSpec builds the canonical two-pipeline deployment for routing tests.
func gkSpec() *DeploymentSpec {
	return &DeploymentSpec{
		Pipelines: []PipelineSpec{
			{Name: "web", Scorer: "threat", Policy: "fixed(difficulty=2)", Source: "store"},
			{Name: "api", Scorer: "threat", Policy: "fixed(difficulty=7)", Source: "store"},
		},
		Routes: []RouteSpec{
			{PathPrefix: "/", Pipeline: "web"},
			{PathPrefix: "/api/", Pipeline: "api"},
			{Tenant: "gold", Pipeline: "api"},
		},
	}
}

func TestGatekeeperRouting(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	web, _ := gk.Pipeline("web")
	api, _ := gk.Pipeline("api")
	cases := []struct {
		path, tenant string
		want         *Pipeline
	}{
		{"/", "", web},
		{"/index.html", "", web},
		{"/api/v1/thing", "", api}, // longest prefix wins
		{"/apix", "", web},         // "/api/" does not match "/apix"
		{"/", "gold", api},         // tenant beats path
		{"/api/v1", "silver", api}, // unknown tenant falls to path
		{"", "", web},              // degenerate path hits catch-all
	}
	for _, tc := range cases {
		if got := gk.RoutePipeline(tc.path, tc.tenant); got != tc.want {
			t.Errorf("Route(%q, %q) = %s, want %s", tc.path, tc.tenant, got.Name(), tc.want.Name())
		}
	}
	if gk.Route("/api/x", "").PolicyName() == gk.Route("/x", "").PolicyName() {
		t.Error("routes share a policy; expected distinct pipelines")
	}

	// Single-pipeline deployments route everything implicitly.
	solo, err := NewGatekeeper(reg, &DeploymentSpec{Pipelines: []PipelineSpec{
		{Name: "only", Scorer: "threat", Policy: "policy2", Source: "store"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Route("/anything", "t") == nil {
		t.Fatal("implicit catch-all missing")
	}
}

func TestGatekeeperApply(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	webFW := gk.Route("/", "")
	if d := decideDifficulty(t, webFW, "10.0.0.9"); d != 2 {
		t.Fatalf("web difficulty = %d", d)
	}

	// Hot-swap web's policy, drop api, add admin with a changed TTL.
	next := &DeploymentSpec{
		Pipelines: []PipelineSpec{
			{Name: "web", Scorer: "threat", Policy: "fixed(difficulty=9)", Source: "store"},
			{Name: "admin", Scorer: "threat", Policy: "fixed(difficulty=14)", Source: "store", TTL: Duration(time.Minute)},
		},
		Routes: []RouteSpec{
			{PathPrefix: "/", Pipeline: "web"},
			{PathPrefix: "/admin/", Pipeline: "admin"},
		},
	}
	if err := gk.Apply(next); err != nil {
		t.Fatal(err)
	}
	// web was hot-swapped: the framework pointer routed before the apply
	// observes the new policy (requests in flight migrate seamlessly).
	if d := decideDifficulty(t, webFW, "10.0.0.9"); d != 9 {
		t.Fatalf("web difficulty after apply = %d, want 9", d)
	}
	if gk.Route("/", "") != webFW {
		t.Fatal("unchanged-limit pipeline was rebuilt")
	}
	if d := decideDifficulty(t, gk.Route("/admin/x", ""), "10.0.0.9"); d != 14 {
		t.Fatal("admin pipeline not routed")
	}
	if _, ok := gk.Pipeline("api"); ok {
		t.Fatal("dropped pipeline still resolvable")
	}
	if names := gk.Names(); len(names) != 2 || names[0] != "admin" || names[1] != "web" {
		t.Fatalf("Names() = %v", names)
	}

	// A broken apply leaves routing on the previous generation.
	if err := gk.Apply(&DeploymentSpec{Pipelines: []PipelineSpec{
		{Name: "web", Scorer: "nope", Policy: "policy2"},
	}}); err == nil {
		t.Fatal("broken apply accepted")
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.9"); d != 9 {
		t.Fatalf("routing disturbed by failed apply: d=%d", d)
	}

	// Changing a non-swappable limit rebuilds the pipeline under the same
	// name rather than failing the apply.
	rebuilt := &DeploymentSpec{Pipelines: []PipelineSpec{
		{Name: "web", Scorer: "threat", Policy: "fixed(difficulty=4)", Source: "store", TTL: Duration(time.Hour)},
	}}
	if err := gk.Apply(rebuilt); err != nil {
		t.Fatal(err)
	}
	if gk.Route("/", "") == webFW {
		t.Fatal("ttl change did not rebuild the pipeline")
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.9"); d != 4 {
		t.Fatalf("rebuilt pipeline difficulty = %d", d)
	}

	// StatsInto namespaces counters by pipeline.
	stats := make(map[string]float64)
	gk.StatsInto(stats)
	if _, ok := stats["web.issued"]; !ok {
		t.Fatalf("stats missing web.issued: %v", stats)
	}
}

// TestGatekeeperApplyHammer races request routing + decisions against a
// loop of full-deployment applies (alternating specs, including a
// pipeline that comes and goes). Run under -race this is the
// control-plane counterpart of core's swap hammer.
func TestGatekeeperApplyHammer(t *testing.T) {
	reg := newTestRegistry(t)
	specA := gkSpec()
	specB := &DeploymentSpec{
		Pipelines: []PipelineSpec{
			{Name: "web", Scorer: "threat(offset=0.5)", Policy: "fixed(difficulty=5)", Source: "store"},
		},
		Routes: []RouteSpec{{PathPrefix: "/", Pipeline: "web"}},
	}
	gk, err := NewGatekeeper(reg, specA)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := specA
			if i%2 == 1 {
				spec = specB
			}
			if err := gk.Apply(spec); err != nil {
				t.Errorf("apply: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			paths := []string{"/", "/api/v1", "/static/x"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fw := gk.Route(paths[(w+i)%len(paths)], "")
				if fw == nil {
					t.Error("Route returned nil")
					return
				}
				dec, err := fw.Decide(core.RequestContext{IP: "10.0.0.9"})
				if err != nil {
					t.Errorf("decide: %v", err)
					return
				}
				switch dec.Difficulty {
				case 2, 5, 7: // specA web/api, specB web
				default:
					t.Errorf("difficulty %d from no known config", dec.Difficulty)
					return
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestCrossPipelineRedemptionRejected pins the per-route enforcement
// property: a solution to one pipeline's (cheap) challenge must not
// redeem on another pipeline, even though both derive from one registry
// root key — while a pipeline rebuilt under the same name keeps
// accepting its predecessor's challenges.
func TestCrossPipelineRedemptionRejected(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	web := gk.Route("/", "")
	api := gk.Route("/api/x", "")

	dec, err := web.Decide(core.RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Verify(sol, "10.0.0.9"); err == nil {
		t.Fatal("cheap web solution redeemed on the api pipeline")
	}

	// Rebuild web under the same name (TTL change forces it) and verify
	// the in-flight challenge still redeems on the successor.
	spec := gkSpec()
	spec.Pipelines[0].TTL = Duration(10 * time.Minute)
	if err := gk.Apply(spec); err != nil {
		t.Fatal(err)
	}
	rebuilt := gk.Route("/", "")
	if rebuilt == web {
		t.Fatal("ttl change did not rebuild web")
	}
	if err := rebuilt.Verify(sol, "10.0.0.9"); err != nil {
		t.Fatalf("rebuilt pipeline rejected its predecessor's challenge: %v", err)
	}
}

// TestGatekeeperApplyAtomicAcrossPipelines pins the no-half-applied
// property: when one pipeline's revision is broken, a valid revision to
// another pipeline in the same apply must NOT take effect.
func TestGatekeeperApplyAtomicAcrossPipelines(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	bad := gkSpec()
	bad.Pipelines[0].Policy = "fixed(difficulty=11)" // valid change to web
	bad.Pipelines[1].Scorer = "nope"                 // broken change to api
	if err := gk.Apply(bad); err == nil {
		t.Fatal("broken deployment accepted")
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.9"); d != 2 {
		t.Fatalf("web difficulty = %d after rejected apply, want untouched 2", d)
	}
}

// TestGatekeeperApplySkipsUnchanged pins the no-op property: re-applying
// a deployment must not churn unchanged pipelines (their swap counters
// stay put, so stateful scorers are never reset by an unrelated reload).
func TestGatekeeperApplySkipsUnchanged(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.Apply(gkSpec()); err != nil {
		t.Fatal(err)
	}
	changed := gkSpec()
	changed.Pipelines[0].Policy = "fixed(difficulty=3)"
	if err := gk.Apply(changed); err != nil {
		t.Fatal(err)
	}
	stats := make(map[string]float64)
	gk.StatsInto(stats)
	if stats["api.swaps"] != 0 {
		t.Fatalf("api swapped %v times across no-op applies, want 0", stats["api.swaps"])
	}
	if stats["web.swaps"] != 1 {
		t.Fatalf("web swapped %v times, want exactly 1 (the real change)", stats["web.swaps"])
	}
}

// TestRegistryRejectsWeakRootKey pins the root-key minimum: per-pipeline
// keys are HMAC-derived (always full-length), so the issuer's own length
// check can never catch a weak root — the registry must.
func TestRegistryRejectsWeakRootKey(t *testing.T) {
	if _, err := NewRegistry([]byte("short")); err == nil {
		t.Fatal("15-byte-or-less root key accepted")
	}
	if _, err := NewRegistry([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("16-byte root key rejected: %v", err)
	}
}

// TestApplyRestoresAfterDirectSwap pins declarative-apply semantics: an
// out-of-band Framework.Swap (an emergency override) diverges the live
// config from the spec, and re-applying the *unchanged* spec must
// restore the declared state rather than no-op on spec equality.
func TestApplyRestoresAfterDirectSwap(t *testing.T) {
	reg := newTestRegistry(t)
	spec := PipelineSpec{Name: "p", Scorer: "threat", Policy: "fixed(difficulty=3)", Source: "store"}
	p, err := reg.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Emergency override outside the control plane.
	override, err := policy.NewFixed(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Framework().SwapPolicy(override); err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.9"); d != 20 {
		t.Fatalf("override not live: d=%d", d)
	}
	// Re-applying the unchanged spec restores the declared config.
	if err := p.Apply(spec); err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, p.Framework(), "10.0.0.9"); d != 3 {
		t.Fatalf("re-apply did not restore spec: d=%d, want 3", d)
	}
	// And once in sync, re-apply is a true no-op again.
	before := p.Framework().Swaps()
	if err := p.Apply(spec); err != nil {
		t.Fatal(err)
	}
	if p.Framework().Swaps() != before {
		t.Fatal("in-sync re-apply swapped anyway")
	}

	// The same restore works through a gatekeeper-level apply.
	gk, err := NewGatekeeper(newTestRegistry(t), gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := gk.Route("/", "").SwapPolicy(override); err != nil {
		t.Fatal(err)
	}
	if err := gk.Apply(gkSpec()); err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.9"); d != 2 {
		t.Fatalf("gatekeeper re-apply did not restore spec: d=%d, want 2", d)
	}
}

// TestGatekeeperSpecReflectsPipelineApply pins the /spec consistency
// property: a direct Pipeline.Apply on a gatekeeper-owned pipeline shows
// up in Gatekeeper.Spec, so saving and re-applying the served spec never
// silently reverts live state.
func TestGatekeeperSpecReflectsPipelineApply(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	web, _ := gk.Pipeline("web")
	ps := web.Spec()
	ps.Policy = "fixed(difficulty=13)"
	if err := web.Apply(ps); err != nil {
		t.Fatal(err)
	}
	served, ok := gk.Spec().Pipeline("web")
	if !ok {
		t.Fatal("web missing from served spec")
	}
	if served.Policy != "fixed(difficulty=13)" {
		t.Fatalf("served spec policy = %q, want the live fixed(difficulty=13)", served.Policy)
	}
	// Round trip: re-applying the served spec is a no-op, not a revert.
	if err := gk.Apply(gk.Spec()); err != nil {
		t.Fatal(err)
	}
	if d := decideDifficulty(t, gk.Route("/", ""), "10.0.0.9"); d != 13 {
		t.Fatalf("round-trip reverted live state: d=%d, want 13", d)
	}
}
