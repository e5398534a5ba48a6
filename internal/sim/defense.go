package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"aipow/internal/control"
	"aipow/internal/dataset"
	"aipow/internal/features"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/reputation"
)

// defenseKey is the root HMAC key every simulated defense signs with.
// Scenarios never cross keys, so a fixed one keeps reports free of key
// material.
var defenseKey = []byte("sim-scenario-hmac-key-32-bytes!!")

// PipelineSpec parses the scenario's Spec into the pipeline spec its nodes
// are built from, named after the scenario.
func (sc Scenario) PipelineSpec() (control.PipelineSpec, error) {
	dep, err := control.ParseDeployment("pipeline " + sc.Name + "\n" + sc.Spec)
	if err != nil {
		return control.PipelineSpec{}, fmt.Errorf("sim: scenario %q spec: %w", sc.Name, err)
	}
	return dep.Pipelines[0], nil
}

// paperComponents is the scenario's data behind the paper's components:
// generate the synthetic feed, train the DAbR model on it and index it in
// the feed store through control's build path (feed IPs never fall in
// 10/8, so they never shadow a population address), then register each
// population's addresses per its Feed profile. Unknown addresses get the
// store's median benign profile — exactly the blind spot rotating botnets
// aim for. Equal seeds produce equal feeds, models and stores.
func (sc Scenario) paperComponents() (*reputation.Model, *features.MapStore, error) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = sc.Seed
	feed, err := dataset.Generate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: generate feed: %w", err)
	}
	model, err := control.TrainFeedModel(feed, sc.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: train model: %w", err)
	}
	store, err := control.NewFeedStore(feed)
	if err != nil {
		return nil, nil, err
	}
	// Training needs a malicious row and the store a benign one, so
	// neither pool below is empty.
	var benign, malicious []dataset.Sample
	for _, s := range feed {
		if s.Malicious {
			malicious = append(malicious, s)
		} else {
			benign = append(benign, s)
		}
	}
	rng := rand.New(rand.NewPCG(mix(sc.Seed, 0xFEED), 0xA551617))
	for pi := range sc.Populations {
		pool := benign
		switch sc.Populations[pi].Feed {
		case FeedMalicious:
			pool = malicious
		case FeedUnknown:
			continue
		}
		for _, addr := range sc.PopulationIPs(pi) {
			store.Put(addr, pool[rng.IntN(len(pool))].Attrs)
		}
	}
	return model, store, nil
}

// buildNodes builds the run's defense nodes — one, or the Cluster's K —
// from the scenario's pipeline spec, each through its own control.Registry
// over the simulation clock: the operator's build path, with the paper's
// components registered over the scenario's feed. Every node scores with
// the same model over the same store; only live per-node state (tracker,
// replay window, counters, controller) diverges — exactly a real fleet's
// shape.
func (eng *engine) buildNodes(ps control.PipelineSpec) error {
	sc := eng.sc
	model, store, err := sc.paperComponents()
	if err != nil {
		return err
	}
	k := 1
	if sc.Cluster != nil {
		k = sc.Cluster.Nodes
	}
	// The run records the defense event log exactly when an invariant
	// reads it.
	events := slices.ContainsFunc(sc.Invariants, func(inv Invariant) bool { return eventMetrics[inv.Metric] })
	for i := range k {
		origin := fmt.Sprintf("n%d", i)
		// Capacity is sized so far above the address universe that no
		// shard's quota can overflow; per-shard LRU eviction would depend
		// on cross-worker interleaving and break determinism.
		tracker, err := features.NewTracker(features.WithCapacity(sc.TotalIPs()*8 + 4096))
		if err != nil {
			return err
		}
		opts := []control.RegistryOption{
			control.WithRegistryTracker(tracker),
			control.WithRegistryClock(eng.clock.Now),
			control.WithRegistryNodeID(origin),
		}
		if events {
			elog := obs.NewEventLog(0)
			eng.elogs = append(eng.elogs, elog)
			sink := elog.Append
			if k > 1 {
				sink = func(e obs.Event) {
					e.Node = origin
					elog.Append(e)
				}
			}
			opts = append(opts, control.WithRegistryEvents(sink))
		}
		reg, err := control.NewRegistry(defenseKey, opts...)
		if err != nil {
			return err
		}
		if err := reg.RegisterPaperComponents(model, store); err != nil {
			return err
		}
		p, err := reg.Build(ps)
		if err != nil {
			return fmt.Errorf("sim: build defense for %q node %d: %w", sc.Name, i, err)
		}
		eng.nodes = append(eng.nodes, p)
	}
	return nil
}

// saturationRate reads a scorer spec's saturation parameter (the hybrid
// and rate scorers' request rate scoring 10), 0 without one. It reads
// specs that already built, so neither parse can fail.
func saturationRate(scorer string) float64 {
	_, params, _ := policy.ParseSpecParams(scorer)
	for _, p := range params {
		if p.Key == "saturation" {
			v, _ := strconv.ParseFloat(p.Value, 64)
			return v
		}
	}
	return 0
}
