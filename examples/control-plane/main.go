// Command control-plane demonstrates the runtime control plane: compile a
// declarative deployment spec into per-route pipelines, serve decisions
// through the gatekeeper, then — mid-"attack" — hot-swap the policy and
// watch the asking price rise without rebuilding anything.
//
// Run with:
//
//	go run ./examples/control-plane
package main

import (
	"fmt"
	"log"

	"aipow"
)

// spec is a two-pipeline deployment in the text DSL: a lenient pipeline
// for the web frontend and an inline-rules pipeline for the API, with
// path-prefix and tenant routes. See SPEC.md for the grammar.
const spec = `
pipeline web
  scorer demo
  policy policy1
  source store
  bypass-below 1

pipeline api
  scorer demo
  source store
  when score >= 8 use 14
  when score < 2 use 2
  default 6
  max-difficulty 18

route /      web
route /api/  api
tenant gold  api
`

// demoScore scores the "threat" attribute directly — a map-shaped scoring
// function, registered through aipow.NewMapScorer.
func demoScore(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}

func main() {
	log.SetFlags(0)

	// 1. The component registry: deployment-specific components become
	// spec-addressable names. The registry owns the shared HMAC key and
	// behavior tracker every pipeline rides on.
	registry, err := aipow.NewComponentRegistry([]byte("control-plane-demo-key-32-bytes!"))
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterScorer("demo", func(params map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(demoScore, "threat")
	}); err != nil {
		log.Fatal(err)
	}
	store, err := aipow.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		log.Fatal(err)
	}
	store.Put("203.0.113.7", map[string]float64{"threat": 0.5}) // known-good
	store.Put("198.51.100.66", map[string]float64{"threat": 9}) // known-bad
	if err := registry.RegisterSource("store", func(params map[string]float64, _ *aipow.Tracker) (aipow.AttributeSource, error) {
		return store, nil
	}); err != nil {
		log.Fatal(err)
	}

	// 2. Compile the declarative spec and stand up the gatekeeper.
	dep, err := aipow.ParseDeployment(spec)
	if err != nil {
		log.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(registry, dep)
	if err != nil {
		log.Fatal(err)
	}

	decide := func(path, tenant, ip string) {
		fw := gk.Route(path, tenant)
		dec, err := fw.Decide(aipow.RequestContext{IP: ip})
		if err != nil {
			log.Fatal(err)
		}
		if dec.Bypassed {
			fmt.Printf("  %-10s tenant=%-5q %-15s → bypass (score %.1f)\n", path, tenant, ip, dec.Score)
			return
		}
		fmt.Printf("  %-10s tenant=%-5q %-15s → difficulty %2d (score %.1f, policy %s)\n",
			path, tenant, ip, dec.Difficulty, dec.Score, fw.PolicyName())
	}

	fmt.Println("initial deployment:")
	decide("/", "", "203.0.113.7")         // web, trusted → bypass
	decide("/", "", "198.51.100.66")       // web, bad → policy1 prices gently
	decide("/api/v1", "", "198.51.100.66") // api rules price harder
	decide("/", "gold", "198.51.100.66")   // tenant route beats the path

	// 3. The attack intensifies: hot-swap web onto policy2 — same spec
	// except the policy line — with zero interruption to serving. The
	// gatekeeper hot-swaps in place because only swappable fields change.
	webSpec, _ := dep.Pipeline("web")
	webSpec.Policy = "policy2"
	web, _ := gk.Pipeline("web")
	if err := web.Apply(webSpec); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after hot-swapping web onto policy2 (no restart, no rebuild):")
	decide("/", "", "203.0.113.7")
	decide("/", "", "198.51.100.66")

	// 4. Direct framework-level swaps work too, for wiring the control
	// plane to alerting: one atomic snapshot install per change.
	if err := web.Framework().Swap(aipow.SetBypassBelow(-1)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after disabling the trusted-client bypass:")
	decide("/", "", "203.0.113.7")
}
