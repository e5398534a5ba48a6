package aipow_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aipow"
)

// TestPublicParallelSolver exercises the multi-core solver through the
// facade against a framework-issued challenge.
func TestPublicParallelSolver(t *testing.T) {
	issuer, err := aipow.NewIssuer(testKey)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := aipow.NewVerifier(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := issuer.Issue("client", 10)
	if err != nil {
		t.Fatal(err)
	}
	sol, stats, err := aipow.NewSolver(aipow.WithSolverWorkers(3)).Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts == 0 {
		t.Fatal("no attempts recorded")
	}
	if err := verifier.Verify(sol, "client"); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestPublicMiddlewarePricesEveryRequest pins the door's one price per
// request through the facade: a solving client pays one puzzle for each
// request, however recently it solved the last.
func TestPublicMiddlewarePricesEveryRequest(t *testing.T) {
	model, store, _, _ := trainedModel(t)
	fw, err := aipow.New(
		aipow.WithKey(testKey),
		aipow.WithScorer(model),
		aipow.WithPolicy(aipow.Policy1()),
		aipow.WithSource(store),
	)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := aipow.NewHTTPMiddleware(fw,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(w, "ok")
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(protected)
	defer srv.Close()

	solves := 0
	client := &http.Client{Transport: aipow.NewHTTPTransport(
		aipow.WithSolveObserver(func(aipow.SolveStats) { solves++ }),
	)}
	for i := 0; i < 4; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	if solves != 4 {
		t.Fatalf("solves = %d over 4 requests, want 4", solves)
	}
}

// TestPublicSimulatedClock drives a framework's challenge TTL through the
// facade's simulated clock: a solution is redeemable before the clock
// advances past the TTL and expired after, with no wall time involved.
func TestPublicSimulatedClock(t *testing.T) {
	clock := aipow.NewSimulatedClock(time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC))
	store, err := aipow.NewMapStore(map[string]float64{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	trustAll, err := aipow.NewMapScorer(func(map[string]float64) (float64, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	fw, err := aipow.New(
		aipow.WithKey(testKey),
		aipow.WithScorer(trustAll),
		aipow.WithPolicy(aipow.Policy1()),
		aipow.WithSource(store),
		aipow.WithClock(clock.Now),
		aipow.WithTTL(30*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fw.Decide(aipow.RequestContext{IP: "203.0.113.7"})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := aipow.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(29 * time.Second)
	if err := fw.Verify(sol, "203.0.113.7"); err != nil {
		t.Fatalf("verify within TTL: %v", err)
	}
	dec2, err := fw.Decide(aipow.RequestContext{IP: "203.0.113.7"})
	if err != nil {
		t.Fatal(err)
	}
	sol2, _, err := aipow.NewSolver().Solve(context.Background(), dec2.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if err := fw.Verify(sol2, "203.0.113.7"); err == nil {
		t.Fatal("verify after simulated TTL expiry should fail")
	}
}

// TestPublicSolverNonceLimit exercises bounded-work solving through the
// facade (the rational-attacker knob).
func TestPublicSolverNonceLimit(t *testing.T) {
	issuer, err := aipow.NewIssuer(testKey)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := issuer.Issue("client", 30)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = aipow.NewSolver(aipow.WithNonceLimit(500)).Solve(context.Background(), ch)
	if err == nil {
		t.Fatal("expected nonce exhaustion")
	}
}
