package control

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
)

// vecScorer is a minimal scorer over the tracker's request count. The zero
// value publishes no schema.
type vecScorer struct{ schema *features.Schema }

func newVecScorer(t *testing.T) vecScorer {
	t.Helper()
	sch, err := features.NewSchema(features.AttrTotalRequests)
	if err != nil {
		t.Fatal(err)
	}
	return vecScorer{schema: sch}
}

func (s vecScorer) Schema() *features.Schema { return s.schema }

func (s vecScorer) ScoreVector(v []float64) (float64, error) {
	return min(10, v[0]), nil
}

// redeemRegistry is newTestRegistry plus the tracker-reading scorer and a
// schema-less one.
func redeemRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := newTestRegistry(t)
	vs := newVecScorer(t)
	if err := reg.RegisterScorer("vec", func(params map[string]float64) (features.VectorScorer, error) {
		return vs, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterScorer("noschema", func(params map[string]float64) (features.VectorScorer, error) {
		return vecScorer{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

const redeemSpecText = `
pipeline p
  scorer vec
  policy policy2
  redeem(max=6, half-credit=26, half-life=2m)
  evidence-buffer 64 5ms
`

// TestRedeemSpecRoundTrip parses the redeem and evidence-buffer grammar
// from text, round-trips it through the canonical JSON, and demands
// semantic equality — the property GET /spec depends on.
func TestRedeemSpecRoundTrip(t *testing.T) {
	d, err := ParseDeployment(redeemSpecText)
	if err != nil {
		t.Fatal(err)
	}
	ps := d.Pipelines[0]
	if ps.Redeem == nil || ps.Redeem.Max != 6 || ps.Redeem.HalfCredit != 26 ||
		time.Duration(ps.Redeem.HalfLife) != 2*time.Minute {
		t.Fatalf("redeem section = %+v", ps.Redeem)
	}
	if ps.EvidenceBuffer == nil || ps.EvidenceBuffer.Size != 64 ||
		time.Duration(ps.EvidenceBuffer.Interval) != 5*time.Millisecond {
		t.Fatalf("evidence-buffer section = %+v", ps.EvidenceBuffer)
	}

	buf, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDeployment(string(buf))
	if err != nil {
		t.Fatalf("reparse canonical JSON: %v", err)
	}
	if !specEqual(d.Pipelines[0], d2.Pipelines[0]) {
		t.Fatalf("round trip changed the spec:\n  text: %+v\n  json: %+v", d.Pipelines[0], d2.Pipelines[0])
	}
}

// TestRedeemSpecDefaults pins the parameterless form: a bare `redeem`
// line enables redemption at the reputation package's defaults.
func TestRedeemSpecDefaults(t *testing.T) {
	d, err := ParseDeployment("pipeline p\n scorer vec\n policy policy2\n redeem\n")
	if err != nil {
		t.Fatal(err)
	}
	ps := d.Pipelines[0]
	if ps.Redeem == nil {
		t.Fatal("bare redeem line did not enable redemption")
	}
	if ps.Redeem.Max != 0 || ps.Redeem.HalfCredit != 0 || ps.Redeem.HalfLife != 0 {
		t.Fatalf("bare redeem carries parameters: %+v", ps.Redeem)
	}
}

// TestRedeemSpecErrors exercises the grammar's rejection paths.
func TestRedeemSpecErrors(t *testing.T) {
	pipe := func(line string) string {
		return "pipeline p\n scorer vec\n policy policy2\n " + line + "\n"
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown key", pipe("redeem(frob=3)"), "redeem"},
		{"bad half-life", pipe("redeem(half-life=fast)"), "half-life"},
		{"negative max", pipe("redeem(max=-2)"), "negative max"},
		{"duplicate redeem", pipe("redeem\n redeem"), "duplicate redeem"},
		{"duplicate parameter", pipe("redeem(max=6, max=7)"), "duplicate parameter"},
		{"no parentheses", pipe("redeem max=6"), "redeem"},
		{"buffer size below minimum", pipe("evidence-buffer 1 5ms"), "below minimum"},
		{"buffer bad interval", pipe("evidence-buffer 64 soon"), "interval"},
		{"buffer arity", pipe("evidence-buffer 64"), "evidence-buffer"},
		{"buffer duplicate", pipe("evidence-buffer 64 5ms\n evidence-buffer 32 1ms"), "duplicate evidence-buffer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDeployment(tc.src)
			if err == nil {
				t.Fatalf("accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRedeemBuildAndSwap compiles a redeeming, buffered pipeline and pins
// the swap matrix: max/half-credit changes hot-swap, half-life and
// evidence-buffer changes demand a rebuild.
func TestRedeemBuildAndSwap(t *testing.T) {
	reg := redeemRegistry(t)
	d, err := ParseDeployment(redeemSpecText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Build(d.Pipelines[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer p.Close()
	if _, err := p.Framework().Decide(core.RequestContext{IP: "203.0.113.50"}); err != nil {
		t.Fatalf("Decide on redeeming pipeline: %v", err)
	}

	// Redemption magnitude is scorer state: hot-swappable.
	hot := d.Pipelines[0]
	hot.Redeem = &RedeemSpec{Max: 8, HalfCredit: 30, HalfLife: hot.Redeem.HalfLife}
	if err := p.Apply(hot); err != nil {
		t.Fatalf("hot-swap of redeem max/half-credit: %v", err)
	}

	// The half-life lives in the tracker's evidence decay: rebuild.
	cold := d.Pipelines[0]
	cold.Redeem = &RedeemSpec{Max: 6, HalfCredit: 26, HalfLife: Duration(10 * time.Minute)}
	if err := p.Apply(cold); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("half-life change applied hot: %v", err)
	}

	// So does the write-back buffer geometry.
	rebuf := d.Pipelines[0]
	rebuf.EvidenceBuffer = &BufferSpec{Size: 32, Interval: Duration(time.Millisecond)}
	if err := p.Apply(rebuf); err == nil || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("evidence-buffer change applied hot: %v", err)
	}
}

// TestSchemalessScorerIsBuildError pins the construction-time guard: a
// scorer that publishes no schema cannot serve, bare or under redemption,
// and says so at Build rather than failing every request closed.
func TestSchemalessScorerIsBuildError(t *testing.T) {
	reg := redeemRegistry(t)
	for _, spec := range []string{
		"pipeline p\n scorer noschema\n policy policy2\n",
		"pipeline p\n scorer noschema\n policy policy2\n redeem\n",
	} {
		d, err := ParseDeployment(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Build(d.Pipelines[0]); err == nil || !strings.Contains(err.Error(), "no schema") {
			t.Fatalf("schema-less scorer built (%q): %v", spec, err)
		}
	}
}

// TestBufferSpecBuildsBufferedFramework pins the plumbing: an
// evidence-buffer section routes the built framework's writes through the
// tracker's write-back buffers, and Close drains them.
func TestBufferSpecBuildsBufferedFramework(t *testing.T) {
	reg := redeemRegistry(t)
	d, err := ParseDeployment("pipeline p\n scorer vec\n policy policy2\n evidence-buffer 1024 1h\n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := reg.Build(d.Pipelines[0])
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := p.Framework().Observe(features.RequestInfo{IP: "203.0.113.51", At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After the drain the observation must be visible in the pipeline's
	// framework state: a second Decide sees nonzero request rate.
	dec, err := p.Framework().Decide(core.RequestContext{IP: "203.0.113.51"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Score == 0 {
		t.Error("buffered observation invisible after Close drain")
	}
}

// TestGatekeeperRebuildsDoNotLeakFlushLoops pins the operational property
// behind closeReplaced: every rebuild-forcing Apply (powserver's SIGHUP
// path) replaces a buffered pipeline, and the replaced pipeline's
// evidence flush goroutine must die with it. Ten reloads, then Close,
// must leave no framework goroutines behind.
func TestGatekeeperRebuildsDoNotLeakFlushLoops(t *testing.T) {
	reg := redeemRegistry(t)
	spec := func(ttl string) *DeploymentSpec {
		d, err := ParseDeployment("pipeline p\n scorer vec\n policy policy2\n ttl " + ttl + "\n evidence-buffer 64 1ms\n")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	before := runtime.NumGoroutine()
	gk, err := NewGatekeeper(reg, spec("30s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ttl := "30s"
		if i%2 == 0 {
			ttl = "60s" // ttl is not hot-swappable: forces a pipeline rebuild
		}
		if err := gk.Apply(spec(ttl)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	// One live pipeline → at most one flush goroutine above the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines grew from %d to %d across 10 rebuilds; flush loops leak", before, n)
	}
	if err := gk.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gk.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after Close", before, n)
	}
}
