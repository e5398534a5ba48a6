// Command observability walks the observability plane end to end: a
// spec-built pipeline with sampled decision tracing, the defense event
// log wired through the registry, and a Prometheus text-format scrape
// rendered from the gatekeeper — the same three surfaces powserver
// serves at GET /metrics, GET /trace, and GET /events on its admin
// listener.
//
// Run with:
//
//	go run ./examples/observability
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"aipow"
)

// spec declares one pipeline with an observe section: every decision is
// traced (sample=1 — a debugging posture; production specs use the
// 1-in-1024 default) into a 16-slot ring. See SPEC.md for the grammar.
const spec = `
pipeline web
  scorer demo
  policy policy2
  observe trace(sample=1, ring=16)
`

// respec is the hot-swap move: the same pipeline retuned to production
// sampling. Applying it replaces the trace ring atomically — no
// pipeline rebuild, in-flight challenges untouched.
const respec = `
pipeline web
  scorer demo
  policy policy2
  observe trace(sample=1024, ring=256)
`

// demoScore distrusts clients with request history (the default tracker
// source feeds it live behavioral attributes), so the trace shows a
// spread of scores and difficulties. It is a map-shaped scoring function,
// registered through aipow.NewMapScorer.
func demoScore(attrs map[string]float64) (float64, error) {
	return min(2+attrs["live_total_requests"], 10), nil
}

func main() {
	log.SetFlags(0)

	// 1. The defense event log: a bounded ring every control-plane layer
	// appends state transitions into. WithRegistryEvents wires it through
	// each pipeline the registry builds — adapt escalations, spec applies
	// and rollbacks, cluster membership changes, evidence stalls.
	events := aipow.NewEventLog(0)
	registry, err := aipow.NewComponentRegistry(
		[]byte("observability-demo-key-32-bytes!"),
		aipow.WithRegistryEvents(events.Append),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterScorer("demo", func(params map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(demoScore, "live_total_requests")
	}); err != nil {
		log.Fatal(err)
	}

	dep, err := aipow.ParseDeployment(spec)
	if err != nil {
		log.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(registry, dep)
	if err != nil {
		log.Fatal(err)
	}
	defer gk.Close()

	// 2. Serve traffic. The observe section samples each decision into
	// the ring; the latency histograms under the scrape count regardless.
	fw := gk.Route("/", "")
	for i := 0; i < 8; i++ {
		ip := fmt.Sprintf("198.51.100.%d", i%3+1) // three clients, growing history
		if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/login"}); err != nil {
			log.Fatal(err)
		}
		if _, err := fw.Decide(aipow.RequestContext{IP: ip}); err != nil {
			log.Fatal(err)
		}
	}

	// 3. The scrape: exactly what powserver's GET /metrics renders —
	// Prometheus text format (version 0.0.4), every series labeled
	// {pipeline, node}. ValidateExposition is the CI-side check.
	e := aipow.NewExposition()
	gk.ExpositionInto(e, "example-node")
	var scrape strings.Builder
	if _, err := e.WriteTo(&scrape); err != nil {
		log.Fatal(err)
	}
	if err := aipow.ValidateExposition([]byte(scrape.String())); err != nil {
		log.Fatal(err)
	}
	fmt.Println("== GET /metrics (validated, excerpt) ==")
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.Contains(line, "aipow_issued") || strings.Contains(line, "trace_sampled") {
			fmt.Println(line)
		}
	}

	// 4. The trace ring: per-decision records — client hash, score,
	// confidence, difficulty, per-stage timings — as GET /trace serves
	// them (bearer-protected in powserver: traces carry per-client detail).
	fmt.Println("\n== GET /trace ==")
	for pipeline, samples := range gk.TraceSnapshots() {
		for _, s := range samples[:3] {
			fmt.Printf("%s: client=%s score=%.1f difficulty=%d total=%dns\n",
				pipeline, s.Client, s.Score, s.Difficulty, s.TotalNs)
		}
		fmt.Printf("%s: … %d samples in the ring\n", pipeline, len(samples))
	}

	// 5. Hot-swap the observe section: the ring is replaced atomically,
	// and the apply lands in the event log beside everything else that
	// changed defense state.
	redep, err := aipow.ParseDeployment(respec)
	if err != nil {
		log.Fatal(err)
	}
	if err := gk.Apply(redep); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== GET /events ==")
	for _, ev := range events.Snapshot() {
		fmt.Printf("#%d %s pipeline=%s detail=%q\n", ev.Seq, ev.Kind, ev.Pipeline, ev.Detail)
	}

	os.Exit(0)
}
