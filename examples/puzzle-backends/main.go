// Command puzzle-backends demonstrates the two-route backend deployment:
// a cheap CPU-bound hashcash pipeline for ordinary browsing and a
// memory-hard balloon pipeline for the abuse-prone signup route, in one
// deployment sharing one client-side solver. It then shows the downgrade
// protection: a balloon challenge re-encoded as a cheap hashcash token is
// rejected, so an attacker cannot swap memory-hard work for SHA-256 that
// GPU rigs discount by three orders of magnitude.
//
// Run with:
//
//	go run ./examples/puzzle-backends
package main

import (
	"context"
	"fmt"
	"log"

	"aipow"
)

// spec routes ordinary traffic onto hashcash and signups onto balloon
// hashing. The backend is per-pipeline issuance state, like ttl: changing
// a puzzle line later rebuilds that pipeline (Gatekeeper.Apply does it
// automatically); everything else about the deployment is ordinary.
const spec = `
pipeline web
  scorer demo
  policy policy1
  source store

pipeline signup
  scorer demo
  policy policy1
  source store
  puzzle balloon(space=64, time=2)
  max-difficulty 8

route /        web
route /signup  signup
`

// demoScore scores the "threat" attribute directly — a map-shaped scoring
// function, registered through aipow.NewMapScorer.
func demoScore(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}

func main() {
	log.SetFlags(0)

	registry, err := aipow.NewComponentRegistry([]byte("puzzle-backends-demo-key-32bytes"))
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
	if err := registry.RegisterSource("store", func(params map[string]float64, _ *aipow.Tracker) (aipow.AttributeSource, error) {
		return store, nil
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

	// One solver serves both routes: it dispatches on each token's wire
	// version and backend ID, so the client needs no configuration.
	solver := aipow.NewSolver()
	const ip = "203.0.113.7"

	solveRoute := func(path string) aipow.Solution {
		fw := gk.Route(path, "")
		dec, err := fw.Decide(aipow.RequestContext{IP: ip})
		if err != nil {
			log.Fatal(err)
		}
		sol, stats, err := solver.Solve(context.Background(), dec.Challenge)
		if err != nil {
			log.Fatal(err)
		}
		if err := fw.Verify(sol, ip); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s v%d %-20s difficulty %2d  solved in %d attempts\n",
			path, dec.Challenge.Version, backendName(dec.Challenge), dec.Difficulty, stats.Attempts)
		return sol
	}

	fmt.Println("one solver, two backends:")
	solveRoute("/")
	balloonSol := solveRoute("/signup")

	// The downgrade attack: re-encode the signup route's Version2 balloon
	// challenge as a cheap Version1 hashcash token and really solve that.
	// The two wire formats authenticate in disjoint HMAC domains and the
	// verifier pins its backend, so the forgery is rejected fail-closed.
	down := balloonSol.Challenge
	down.Version = aipow.Version1
	down.Backend, down.Space, down.Rounds = 0, 0, 0
	cheap, _, err := solver.Solve(context.Background(), down)
	if err != nil {
		log.Fatal(err)
	}
	err = gk.Route("/signup", "").Verify(cheap, ip)
	fmt.Printf("\ndowngraded balloon→hashcash token on /signup: %v\n", err)
}

func backendName(ch aipow.Challenge) string {
	if ch.Version >= aipow.Version2 {
		return fmt.Sprintf("backend=%s(space=%d, time=%d)", ch.Backend, ch.Space, ch.Rounds)
	}
	return "backend=hashcash"
}
