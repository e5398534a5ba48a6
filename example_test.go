package aipow_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"aipow"
)

// threatScore scores the "threat" attribute directly: a map-shaped scoring
// function, registered through aipow.NewMapScorer.
func threatScore(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}

// threatRegistry returns a component registry with the "threat" scorer and
// a "store" source over store, so spec text can name both.
func threatRegistry(key string, store *aipow.MapStore) *aipow.ComponentRegistry {
	registry, err := aipow.NewComponentRegistry([]byte(key))
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterScorer("threat", func(map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(threatScore, "threat")
	}); err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterSource("store", func(map[string]float64, *aipow.Tracker) (aipow.AttributeSource, error) {
		return store, nil
	}); err != nil {
		log.Fatal(err)
	}
	return registry
}

func newStore(fallback map[string]float64) *aipow.MapStore {
	store, err := aipow.NewMapStore(fallback)
	if err != nil {
		log.Fatal(err)
	}
	return store
}

func gatekeeper(registry *aipow.ComponentRegistry, spec string) *aipow.Gatekeeper {
	dep, err := aipow.ParseDeployment(spec)
	if err != nil {
		log.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(registry, dep)
	if err != nil {
		log.Fatal(err)
	}
	return gk
}

// maintenancePolicy is a hand-written Policy: during a maintenance window
// it treats everyone as untrusted. Anything with Name and Difficulty
// methods plugs into the framework.
type maintenancePolicy struct {
	inner       aipow.Policy
	maintenance *atomic.Bool
}

func (m maintenancePolicy) Name() string { return "maintenance(" + m.inner.Name() + ")" }

func (m maintenancePolicy) Difficulty(score float64) int {
	if m.maintenance.Load() {
		return m.inner.Difficulty(10)
	}
	return m.inner.Difficulty(score)
}

// Every way to express a score → difficulty strategy: the paper's three
// policies, spec strings (how a config file names a policy), the rule
// DSL, composition wrappers and a hand-written Policy. The table is
// each policy's difficulty across the score scale: the shape of the
// paper's Figure 2 before latency enters.
func Example_customPolicy() {
	p3, err := aipow.Policy3(aipow.WithEpsilon(2.5), aipow.WithPolicySeed(42))
	if err != nil {
		log.Fatal(err)
	}
	policies := []aipow.Policy{aipow.Policy1(), aipow.Policy2(), p3}

	for _, spec := range []string{"exponential(base=1,factor=0.4)", "fixed(difficulty=8)"} {
		p, err := aipow.ParsePolicy(spec)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, p)
	}

	// Tiers with an exemption band; the first matching rule wins.
	tiers, err := aipow.ParsePolicyRules(`
name edge-tiers
when score <  2 use 1
when score >= 8 use 14
when score >= 5 use 8
default 3
`)
	if err != nil {
		log.Fatal(err)
	}
	policies = append(policies, tiers)

	// Clamp a policy, and harden one under load (here a fixed 85%).
	clamped, err := aipow.ClampPolicy(aipow.Policy2(), 5, 12)
	if err != nil {
		log.Fatal(err)
	}
	adaptive, err := aipow.NewLoadAdaptivePolicy(aipow.Policy1(), func() float64 { return 0.85 }, 6)
	if err != nil {
		log.Fatal(err)
	}
	var inMaintenance atomic.Bool
	inMaintenance.Store(true)
	policies = append(policies, clamped, adaptive, maintenancePolicy{inner: aipow.Policy1(), maintenance: &inMaintenance})

	fmt.Printf("%-32s", "policy \\ score")
	for r := 0; r <= 10; r++ {
		fmt.Printf("%3d", r)
	}
	fmt.Println()
	for _, p := range policies {
		fmt.Printf("%-32s", p.Name())
		for r := 0; r <= 10; r++ {
			fmt.Printf("%3d", p.Difficulty(float64(r)))
		}
		fmt.Println()
	}
	// Output:
	// policy \ score                    0  1  2  3  4  5  6  7  8  9 10
	// policy1                           1  2  3  4  5  6  7  8  9 10 11
	// policy2                           5  6  7  8  9 10 11 12 13 14 15
	// policy3(eps=2.5)                  1  3  1  3  7  6  6  9  7 12 10
	// exponential(base=1,factor=0.4)    1  1  2  2  3  4  5  7  9 12 16
	// fixed(8)                          8  8  8  8  8  8  8  8  8  8  8
	// edge-tiers                        1  1  3  3  3  8  8  8 14 14 14
	// clamp(policy2,5..12)              5  6  7  8  9 10 11 12 12 12 12
	// adaptive(policy1,+6)              6  7  8  9 10 11 12 13 14 15 16
	// maintenance(policy1)             11 11 11 11 11 11 11 11 11 11 11
}

// The runtime control plane: a declarative spec compiles into per-route
// pipelines, the gatekeeper routes requests onto them, and mid-attack the
// web pipeline moves onto a harder policy without a restart or rebuild.
func Example_controlPlane() {
	store := newStore(map[string]float64{"threat": 5})
	store.Put("203.0.113.7", map[string]float64{"threat": 0.5}) // known-good
	store.Put("198.51.100.66", map[string]float64{"threat": 9}) // known-bad
	gk := gatekeeper(threatRegistry("control-plane-demo-key-32-bytes!", store), `
pipeline web
  scorer threat
  policy policy1
  source store
  bypass-below 1

pipeline api
  scorer threat
  source store
  when score >= 8 use 14
  when score < 2 use 2
  default 6
  max-difficulty 18

route /      web
route /api/  api
tenant gold  api
`)
	defer gk.Close()

	decide := func(path, tenant, ip string) {
		fw := gk.Route(path, tenant)
		dec, err := fw.Decide(aipow.RequestContext{IP: ip})
		if err != nil {
			log.Fatal(err)
		}
		if dec.Bypassed {
			fmt.Printf("  %-8s tenant=%-6q %-13s → bypass (score %.1f)\n", path, tenant, ip, dec.Score)
			return
		}
		fmt.Printf("  %-8s tenant=%-6q %-13s → difficulty %2d (score %.1f, policy %s)\n",
			path, tenant, ip, dec.Difficulty, dec.Score, fw.PolicyName())
	}

	fmt.Println("initial deployment:")
	decide("/", "", "203.0.113.7")         // web, trusted: bypass
	decide("/", "", "198.51.100.66")       // web, bad: policy1 prices gently
	decide("/api/v1", "", "198.51.100.66") // api rules price harder
	decide("/", "gold", "198.51.100.66")   // a tenant route beats the path

	// Only a swappable field changes, so the pipeline swaps in place.
	web, _ := gk.Pipeline("web")
	webSpec := web.Spec()
	webSpec.Policy = "policy2"
	if err := web.Apply(webSpec); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after hot-swapping web onto policy2:")
	decide("/", "", "203.0.113.7")
	decide("/", "", "198.51.100.66")

	// A direct framework swap, for wiring the control plane to alerting.
	if err := web.Framework().Swap(aipow.SetBypassBelow(-1)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after disabling the trusted-client bypass:")
	decide("/", "", "203.0.113.7")
	// Output:
	// initial deployment:
	//   /        tenant=""     203.0.113.7   → bypass (score 0.5)
	//   /        tenant=""     198.51.100.66 → difficulty 10 (score 9.0, policy clamp(policy1,1..22))
	//   /api/v1  tenant=""     198.51.100.66 → difficulty 14 (score 9.0, policy clamp(rules,1..18))
	//   /        tenant="gold" 198.51.100.66 → difficulty 14 (score 9.0, policy clamp(rules,1..18))
	// after hot-swapping web onto policy2:
	//   /        tenant=""     203.0.113.7   → bypass (score 0.5)
	//   /        tenant=""     198.51.100.66 → difficulty 14 (score 9.0, policy clamp(policy2,1..22))
	// after disabling the trusted-client bypass:
	//   /        tenant=""     203.0.113.7   → difficulty  6 (score 0.5, policy clamp(policy2,1..22))
}

// Two puzzle backends in one deployment: cheap CPU-bound hashcash for
// browsing and memory-hard balloon hashing for signups, solved by one
// client-side solver. A balloon challenge re-encoded as a cheap hashcash
// token is rejected, so an attacker cannot swap memory-hard work for
// SHA-256 that GPU rigs discount.
func Example_puzzleBackends() {
	store := newStore(map[string]float64{"threat": 5})
	gk := gatekeeper(threatRegistry("puzzle-backends-demo-key-32bytes", store), `
pipeline web
  scorer threat
  policy policy1
  source store

pipeline signup
  scorer threat
  policy policy1
  source store
  puzzle balloon(space=64, time=2)
  max-difficulty 8

route /        web
route /signup  signup
`)
	defer gk.Close()

	// The solver dispatches on each token's backend.
	solver := aipow.NewSolver()
	const ip = "203.0.113.7"
	solveRoute := func(path string) aipow.Solution {
		fw := gk.Route(path, "")
		dec, err := fw.Decide(aipow.RequestContext{IP: ip})
		if err != nil {
			log.Fatal(err)
		}
		sol, _, err := solver.Solve(context.Background(), dec.Challenge)
		if err != nil {
			log.Fatal(err)
		}
		backend := "hashcash"
		if ch := dec.Challenge; ch.Backend == aipow.BackendBalloon {
			backend = fmt.Sprintf("%s(space=%d, time=%d)", ch.Backend, ch.Space, ch.Rounds)
		}
		fmt.Printf("%-8s v%d %-25s difficulty %d, verify: %v\n",
			path, dec.Challenge.Version, backend, dec.Difficulty, fw.Verify(sol, ip))
		return sol
	}
	solveRoute("/")
	balloon := solveRoute("/signup")

	// The downgrade: the signup challenge relabelled as hashcash and
	// really solved. The verifier pins its backend, and the MAC covers
	// the backend byte.
	down := balloon.Challenge
	down.Backend, down.Space, down.Rounds = aipow.BackendHashcash, 0, 0
	cheap, _, err := solver.Solve(context.Background(), down)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("downgraded token on /signup:", gk.Route("/signup", "").Verify(cheap, ip))
	// Output:
	// /        v2 hashcash                  difficulty 6, verify: <nil>
	// /signup  v2 balloon(space=64, time=2) difficulty 6, verify: <nil>
	// downgraded token on /signup: puzzle: verification failed: puzzle: unsupported version: got v2/hashcash, verifier accepts v2/balloon
}

// The observability plane, as powserver serves it on its admin listener:
// GET /metrics renders the gatekeeper as Prometheus text, GET /trace the
// sampled decision traces, GET /events the defense event log. Hot-swapping
// the observe section replaces the trace ring and lands in the event log.
func Example_observability() {
	clock := aipow.NewSimulatedClock(time.Date(2022, 6, 27, 12, 0, 0, 0, time.UTC))
	events := aipow.NewEventLog(0)
	registry, err := aipow.NewComponentRegistry([]byte("observability-demo-key-32-bytes!"),
		aipow.WithRegistryEvents(events.Append), aipow.WithRegistryClock(clock.Now))
	if err != nil {
		log.Fatal(err)
	}
	// Clients with request history are distrusted; the default tracker
	// source feeds the live request count.
	if err := registry.RegisterScorer("history", func(map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(func(attrs map[string]float64) (float64, error) {
			return min(2+attrs["live_total_requests"], 10), nil
		}, "live_total_requests")
	}); err != nil {
		log.Fatal(err)
	}
	// sample=1 traces every decision: a debugging posture.
	gk := gatekeeper(registry, `
pipeline web
  scorer history
  policy policy2
  observe trace(sample=1, ring=16)
`)
	defer gk.Close()

	fw := gk.Route("/", "")
	for i := range 8 {
		ip := fmt.Sprintf("198.51.100.%d", i%3+1) // three clients, growing history
		if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/login", At: clock.Now()}); err != nil {
			log.Fatal(err)
		}
		if _, err := fw.Decide(aipow.RequestContext{IP: ip}); err != nil {
			log.Fatal(err)
		}
		clock.Advance(time.Second)
	}

	e := aipow.NewExposition()
	gk.ExpositionInto(e, "example-node")
	var scrape strings.Builder
	if _, err := e.WriteTo(&scrape); err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET /metrics valid:", aipow.ValidateExposition([]byte(scrape.String())) == nil)
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, "aipow_issued{") || strings.HasPrefix(line, "aipow_trace_sampled{") {
			fmt.Println(line)
		}
	}

	fmt.Println("GET /trace:")
	for _, s := range gk.TraceSnapshots()["web"][:4] {
		fmt.Printf("  client=%s score=%.0f difficulty=%d\n", s.Client, s.Score, s.Difficulty)
	}

	redep, err := aipow.ParseDeployment(`
pipeline web
  scorer history
  policy policy2
  observe trace(sample=1024, ring=256)
`)
	if err != nil {
		log.Fatal(err)
	}
	if err := gk.Apply(redep); err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET /events:")
	for _, ev := range events.Snapshot() {
		fmt.Printf("  #%d %s %d→%d %q\n", ev.Seq, ev.Kind, ev.From, ev.To, ev.Detail)
	}
	// Output:
	// GET /metrics valid: true
	// aipow_issued{pipeline="web",node="example-node"} 8
	// aipow_trace_sampled{pipeline="web",node="example-node"} 8
	// GET /trace:
	//   client=8d31d0e77987efd3 score=3 difficulty=8
	//   client=8d31d1e77987f186 score=3 difficulty=8
	//   client=8d31d2e77987f339 score=3 difficulty=8
	//   client=8d31d0e77987efd3 score=4 difficulty=9
	// GET /events:
	//   #1 spec.apply 0→1 "1 pipelines, 0 routes"
	//   #2 spec.apply 1→2 "1 pipelines, 0 routes"
}
