// Command cluster demonstrates the distributed defense plane: two fleet
// nodes serving the same pipeline exchange state frames, so a token
// solved and redeemed on one node cannot be replayed against the other,
// and both defend with fleet-wide knowledge.
//
// The two "nodes" run in one process here, talking over real HTTP —
// exactly what a multi-machine deployment does with powserver's
// -cluster-listen flag (see the "Distributed defense plane" sections of
// the package docs and SPEC.md).
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"aipow"
)

// demoScore scores the "threat" attribute directly — a map-shaped scoring
// function, registered through aipow.NewMapScorer.
func demoScore(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}

// newNode builds one fleet member: its own registry (distinct origin
// name, shared root key — challenge signatures must verify fleet-wide)
// and a gatekeeper compiled from the spec text.
func newNode(origin, spec string) *aipow.Gatekeeper {
	registry, err := aipow.NewComponentRegistry(
		[]byte("cluster-demo-root-key-32-bytes!!"),
		aipow.WithRegistryNodeID(origin),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterScorer("demo", func(map[string]float64) (aipow.Scorer, error) {
		return aipow.NewMapScorer(demoScore, "threat")
	}); err != nil {
		log.Fatal(err)
	}
	store, err := aipow.NewMapStore(map[string]float64{"threat": 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.RegisterSource("store", func(map[string]float64, *aipow.Tracker) (aipow.AttributeSource, error) {
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
	return gk
}

func main() {
	log.SetFlags(0)

	// Node A: a bare `cluster` statement — it exports frames but pulls
	// from nobody yet. powserver would mount this handler on its
	// -cluster-listen address; here an httptest server plays that role.
	gkA := newNode("node-a", `
pipeline edge
  scorer demo
  source store
  policy policy1
  max-difficulty 8
  cluster
`)
	defer gkA.Close()
	pipeA, _ := gkA.Pipeline("edge")
	srvA := httptest.NewServer(pipeA.ClusterNode().Handler())
	defer srvA.Close()

	// Node B names A as its peer and pulls every 50ms. Partial views are
	// fine — frames relay peer sections, so knowledge spreads
	// transitively over rings and sparse meshes.
	gkB := newNode("node-b", fmt.Sprintf(`
pipeline edge
  scorer demo
  source store
  policy policy1
  max-difficulty 8
  cluster peers(%s) exchange(50ms)
`, srvA.URL))
	defer gkB.Close()

	// A client solves an honest challenge on node A and redeems it there.
	const ip = "203.0.113.7"
	fwA, fwB := gkA.Route("/", ""), gkB.Route("/", "")
	dec, err := fwA.Decide(aipow.RequestContext{IP: ip})
	if err != nil {
		log.Fatal(err)
	}
	sol, stats, err := aipow.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		log.Fatal(err)
	}
	if err := fwA.Verify(sol, ip); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node A: difficulty %d solved in %d hashes, redeemed\n",
		dec.Difficulty, stats.Attempts)

	// Give B one exchange round to absorb A's redeemed-tag filter, then
	// replay the already-redeemed solution against B. The signature
	// checks out — same pipeline key fleet-wide — but the gossiped Bloom
	// ring catches the tag and the verifier fails closed.
	time.Sleep(300 * time.Millisecond)
	if err := fwB.Verify(sol, ip); err != nil {
		fmt.Printf("node B: cross-node replay correctly refused: %v\n", err)
	} else {
		log.Fatal("node B redeemed a replayed token — the fleet filter failed")
	}

	fleet := make(map[string]float64)
	gkB.StatsInto(fleet)
	fmt.Printf("node B fleet stats: peers=%v exchanges=%v filter_hits=%v\n",
		fleet["edge.cluster.peers"], fleet["edge.cluster.exchanges"], fleet["edge.cluster.filter_hits"])
}
