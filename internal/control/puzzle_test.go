package control

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aipow/internal/core"
	"aipow/internal/puzzle"
)

func TestPuzzleSpecParsing(t *testing.T) {
	dep, err := ParseDeployment(`
pipeline signup
  scorer threat
  policy policy2
  puzzle balloon(space=8, time=1)
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Pipelines[0].Puzzle; got != "balloon(space=8, time=1)" {
		t.Fatalf("puzzle = %q", got)
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
		t.Fatalf("puzzle lost in JSON round-trip: %+v vs %+v", dep.Pipelines[0], back.Pipelines[0])
	}

	for _, bad := range []string{
		"pipeline p\n  scorer s\n  policy policy2\n  puzzle scrypt\n",
		"pipeline p\n  scorer s\n  policy policy2\n  puzzle balloon(space=1)\n",
		"pipeline p\n  scorer s\n  policy policy2\n  puzzle hashcash\n  puzzle balloon\n", // duplicate
	} {
		if _, err := ParseDeployment(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestPuzzleIsNotHotSwappable(t *testing.T) {
	a := PipelineSpec{Name: "p", Scorer: "s", Policy: "policy2"}
	b := a
	b.Puzzle = "balloon(space=8, time=1)"
	if err := a.swappableEqual(b); err == nil {
		t.Fatal("puzzle change passed swappableEqual")
	}
	if specEqual(a, b) {
		t.Fatal("specEqual ignores the puzzle")
	}

	// Spelling the default explicitly is not a change: "", "hashcash" and
	// the canonical hashcash spec all select the same backend, so none of
	// them forces a rebuild.
	c := a
	c.Puzzle = "hashcash"
	if err := a.swappableEqual(c); err != nil {
		t.Fatalf("explicit default hashcash rebuilt the pipeline: %v", err)
	}
	if !specEqual(a, c) {
		t.Fatal("specEqual distinguishes equivalent puzzle spellings")
	}
}

// TestPuzzleChangeRebuildsPipeline pins the swap-matrix row: a puzzle
// change is applied by rebuild, not hot-swap — the gatekeeper replaces
// the pipeline, and challenges issued by the old backend stop verifying
// (fail-closed, exactly like a key rotation).
func TestPuzzleChangeRebuildsPipeline(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, gkSpec())
	if err != nil {
		t.Fatal(err)
	}
	web := gk.Route("/", "")
	dec, err := web.Decide(core.RequestContext{IP: "10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}

	spec := gkSpec()
	spec.Pipelines[0].Puzzle = "balloon(space=8, time=1)"
	if err := gk.Apply(spec); err != nil {
		t.Fatal(err)
	}
	rebuilt := gk.Route("/", "")
	if rebuilt == web {
		t.Fatal("puzzle change did not rebuild the pipeline")
	}
	if err := rebuilt.Verify(sol, "10.0.0.1"); err == nil {
		t.Fatal("old backend's solution redeemed after the backend swap")
	}

	// Direct Apply on the pipeline object refuses the same change.
	p, _ := gk.Pipeline("web")
	next := p.Spec()
	next.Puzzle = ""
	if err := p.Apply(next); err == nil || !strings.Contains(err.Error(), "not hot-swappable") {
		t.Fatalf("puzzle revert hot-swapped: %v", err)
	}
}

// TestCrossBackendRouteRejected pins per-route backend enforcement: with
// a cheap hashcash route and a memory-hard balloon route in one
// deployment, a solution from either route never redeems on the other —
// each verifier's backend gate rejects the swap even before the
// per-pipeline derived keys would.
func TestCrossBackendRouteRejected(t *testing.T) {
	reg := newTestRegistry(t)
	spec := gkSpec()
	spec.Pipelines[1].Puzzle = "balloon(space=8, time=1)"
	gk, err := NewGatekeeper(reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	web := gk.Route("/", "")
	api := gk.Route("/api/x", "")

	webDec, err := web.Decide(core.RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if webDec.Challenge.Version != puzzle.Version2 ||
		webDec.Challenge.Backend != puzzle.BackendHashcash {
		t.Fatalf("web challenge = v%d backend %v, want v2 hashcash",
			webDec.Challenge.Version, webDec.Challenge.Backend)
	}
	apiDec, err := api.Decide(core.RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if apiDec.Challenge.Version != puzzle.Version2 ||
		apiDec.Challenge.Backend != puzzle.BackendBalloon {
		t.Fatalf("api challenge = v%d backend %v, want v2 balloon",
			apiDec.Challenge.Version, apiDec.Challenge.Backend)
	}

	solver := puzzle.NewSolver()
	webSol, _, err := solver.Solve(context.Background(), webDec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	apiSol, _, err := solver.Solve(context.Background(), apiDec.Challenge)
	if err != nil {
		t.Fatal(err)
	}

	if err := web.Verify(webSol, "10.0.0.9"); err != nil {
		t.Fatalf("hashcash solution rejected on its own route: %v", err)
	}
	if err := api.Verify(apiSol, "10.0.0.9"); err != nil {
		t.Fatalf("balloon solution rejected on its own route: %v", err)
	}
	if err := web.Verify(apiSol, "10.0.0.9"); !errors.Is(err, puzzle.ErrBadVersion) {
		t.Fatalf("balloon solution on the hashcash route: err = %v, want ErrBadVersion", err)
	}
	if err := api.Verify(webSol, "10.0.0.9"); !errors.Is(err, puzzle.ErrBadVersion) {
		t.Fatalf("hashcash solution on the balloon route: err = %v, want ErrBadVersion", err)
	}
}
