package control

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/puzzle"
)

func TestClusterGrammar(t *testing.T) {
	dep, err := ParseDeployment(`
pipeline api
  scorer threat
  policy policy2
  cluster peers(http://n1:7000/cluster/api, http://n2:7000/cluster/api) exchange(250ms) filter(bits=16384, hashes=5)
`)
	if err != nil {
		t.Fatal(err)
	}
	cs := dep.Pipelines[0].Cluster
	if cs == nil {
		t.Fatal("cluster statement parsed to nil")
	}
	if len(cs.Peers) != 2 || cs.Peers[0] != "http://n1:7000/cluster/api" || cs.Peers[1] != "http://n2:7000/cluster/api" {
		t.Fatalf("peers = %v", cs.Peers)
	}
	if time.Duration(cs.Exchange) != 250*time.Millisecond || cs.FilterBits != 16384 || cs.FilterHashes != 5 {
		t.Fatalf("cluster = %+v", cs)
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
		t.Fatalf("cluster lost in JSON round-trip: %+v vs %+v", dep.Pipelines[0].Cluster, back.Pipelines[0].Cluster)
	}

	// A bare statement selects all defaults: clustered, no peers yet.
	bare, err := ParseDeployment("pipeline p\n scorer threat\n policy policy2\n cluster\n")
	if err != nil {
		t.Fatal(err)
	}
	if bare.Pipelines[0].Cluster == nil {
		t.Fatal("bare cluster statement parsed to nil")
	}

	for _, bad := range []string{
		"pipeline p\n scorer s\n policy policy2\n cluster exchange(abc)\n",
		"pipeline p\n scorer s\n policy policy2\n cluster filter(bits=1000)\n", // not a power of two
		"pipeline p\n scorer s\n policy policy2\n cluster filter(depth=3)\n",
		"pipeline p\n scorer s\n policy policy2\n cluster bogus(1)\n",
		"pipeline p\n scorer s\n policy policy2\n cluster peers(a) peers(b)\n", // duplicate group
		"pipeline p\n scorer s\n policy policy2\n cluster\n cluster\n",         // duplicate statement
		"pipeline p\n scorer s\n policy policy2\n cluster exchange(-1s)\n",
		"pipeline p\n scorer s\n policy policy2\n cluster filter(bits=64, bits=128)\n", // duplicate parameter
		"pipeline p\n scorer s\n policy policy2\n cluster delta(every=2, every=3)\n",
	} {
		if _, err := ParseDeployment(bad); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestClusterIsNotHotSwappable(t *testing.T) {
	a := PipelineSpec{Name: "p", Scorer: "s", Policy: "policy2"}
	b := a
	b.Cluster = &ClusterSpec{Exchange: Duration(time.Second)}
	if err := a.swappableEqual(b); err == nil {
		t.Fatal("cluster change passed swappableEqual")
	}
	if specEqual(a, b) {
		t.Fatal("specEqual ignores the cluster section")
	}
	c := b
	c.Cluster = &ClusterSpec{Exchange: Duration(time.Second)}
	if err := b.swappableEqual(c); err != nil {
		t.Fatalf("identical cluster sections forced a rebuild: %v", err)
	}
}

// clusterSpec builds a single-pipeline deployment whose cluster section
// lists the given peers.
func clusterSpec(t *testing.T, peers ...string) *DeploymentSpec {
	t.Helper()
	stmt := "cluster exchange(1ms)"
	if len(peers) > 0 {
		stmt += " peers(" + strings.Join(peers, ", ") + ")"
	}
	dep, err := ParseDeployment("pipeline p\n scorer threat\n policy policy2\n source store\n " + stmt + "\n")
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestClusterCrossNodeReplay is the distributed-defense headline at the
// control-plane level: a token genuinely solved and redeemed on fleet
// node A must not redeem on node B once B has absorbed A's filter frame
// — same root key, same pipeline name, two registries.
func TestClusterCrossNodeReplay(t *testing.T) {
	regA := newTestRegistry(t)
	WithRegistryNodeID("node-a")(regA)
	regB := newTestRegistry(t)
	WithRegistryNodeID("node-b")(regB)

	gkA, err := NewGatekeeper(regA, clusterSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer gkA.Close()
	gkB, err := NewGatekeeper(regB, clusterSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer gkB.Close()

	pa, _ := gkA.Pipeline("p")
	pb, _ := gkB.Pipeline("p")
	nodeA, nodeB := pa.ClusterNode(), pb.ClusterNode()
	if nodeA == nil || nodeB == nil {
		t.Fatal("clustered pipelines carry no node")
	}

	dec, err := pa.Framework().Decide(core.RequestContext{IP: "10.0.0.9"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bypassed || dec.Difficulty == 0 {
		t.Fatal("10.0.0.9 not challenged")
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Framework().Verify(sol, "10.0.0.9"); err != nil {
		t.Fatalf("honest redemption on the home node failed: %v", err)
	}

	// Before the exchange B would accept the replay (same key, its own
	// replay window never saw the tag); after absorbing A's frame it must
	// fail closed.
	nodeB.ExchangeWith(nodeA)
	if err := pb.Framework().Verify(sol, "10.0.0.9"); !errors.Is(err, puzzle.ErrReplayed) {
		t.Fatalf("cross-node replay verdict = %v, want ErrReplayed", err)
	}
	if nodeB.Stats().FilterHits == 0 {
		t.Fatal("suppressed replay not counted as a filter hit")
	}
}

// TestClusterLifecycle pins the goroutine accounting for the exchange
// loop: peers in the spec start it, rebuild-forcing applies replace it
// without leaking the old one, and Close stops it.
func TestClusterLifecycle(t *testing.T) {
	// A peer that always 500s: the loop must keep running (and counting
	// errors), not exit or wedge.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	before := runtime.NumGoroutine()
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, clusterSpec(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := gk.Pipeline("p")
	node := p.ClusterNode()
	deadline := time.Now().Add(5 * time.Second)
	for node.Stats().AbsorbErrs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exchange loop never ran")
		}
		time.Sleep(time.Millisecond)
	}

	// A cluster change is applied by rebuild; the replaced pipeline's
	// exchange loop must die with its framework.
	for i := 0; i < 5; i++ {
		dep := clusterSpec(t, srv.URL)
		if i%2 == 0 {
			dep.Pipelines[0].Cluster.FilterBits = 1 << 15
		}
		if err := gk.Apply(dep); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if err := gk.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close — exchange loops leak",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterOffIsInert: without a cluster section there is no node, no
// cluster stats keys, and the serving path is exactly the standalone one.
func TestClusterOffIsInert(t *testing.T) {
	reg := newTestRegistry(t)
	dep, err := ParseDeployment("pipeline p\n scorer threat\n policy policy2\n source store\n")
	if err != nil {
		t.Fatal(err)
	}
	gk, err := NewGatekeeper(reg, dep)
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	p, _ := gk.Pipeline("p")
	if p.ClusterNode() != nil {
		t.Fatal("standalone pipeline grew a cluster node")
	}
	stats := map[string]float64{}
	p.StatsInto(stats)
	for k := range stats {
		if strings.HasPrefix(k, "cluster.") {
			t.Fatalf("standalone pipeline exports cluster stat %q", k)
		}
	}
}

// TestClusterStats: a clustered pipeline namespaces its node counters.
func TestClusterStats(t *testing.T) {
	reg := newTestRegistry(t)
	gk, err := NewGatekeeper(reg, clusterSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	p, _ := gk.Pipeline("p")
	stats := map[string]float64{}
	p.StatsInto(stats)
	for _, k := range []string{"cluster.peers", "cluster.filter_hits", "cluster.exchanges",
		"cluster.frames_full", "cluster.frames_delta", "cluster.frame_rows"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("missing cluster stat %q (have %v)", k, stats)
		}
	}

	// The gatekeeper scrape — what powserver's /stats serves — must carry
	// the same counters under the pipeline's namespace.
	scrape := map[string]float64{}
	gk.StatsInto(scrape)
	for _, k := range []string{"p.cluster.peers", "p.cluster.filter_hits", "p.cluster.exchanges",
		"p.cluster.frames_full", "p.tracker.entries", "p.tracker.slab_utilization"} {
		if _, ok := scrape[k]; !ok {
			t.Errorf("gatekeeper scrape missing %q", k)
		}
	}
}
