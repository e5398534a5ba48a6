package aipow_test

// Micro-benchmarks of the real cryptographic work and the serving hot
// path (run with `go test -bench=. -benchmem`):
//
//	BenchmarkSolveTime/d=N   real SHA-256 solving per difficulty
//	BenchmarkAsymmetry*      server-side vs client-side cost per op
//	BenchmarkDecide*         the decide path under tracing, swap, adapt
//	                         and evidence write-back
//
// The end-to-end serving benchmark is `go run ./bench`.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aipow"
)

// BenchmarkSolveTime measures genuine SHA-256 puzzle solving on this host
// per difficulty — the real-hardware check of the exponential shape.
// ns/op should roughly double per difficulty step.
func BenchmarkSolveTime(b *testing.B) {
	issuer, err := aipow.NewIssuer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	solver := aipow.NewSolver()
	for _, d := range []int{1, 4, 8, 12, 16, 20} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			var hashes uint64
			for i := 0; i < b.N; i++ {
				ch, err := issuer.Issue("bench-client", d)
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := solver.Solve(context.Background(), ch)
				if err != nil {
					b.Fatal(err)
				}
				hashes += stats.Attempts
			}
			b.ReportMetric(float64(hashes)/float64(b.N), "hashes/op")
		})
	}
}

var benchKey = []byte("benchmark-hmac-key-32-bytes-long")

// BenchmarkAsymmetryIssue measures the server-side cost of generating one
// challenge (E6: it must be orders of magnitude below solving).
func BenchmarkAsymmetryIssue(b *testing.B) {
	issuer, err := aipow.NewIssuer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := issuer.Issue("203.0.113.9", 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsymmetryVerify measures the server-side cost of verifying one
// solution — one HMAC plus one hash, independent of difficulty.
func BenchmarkAsymmetryVerify(b *testing.B) {
	issuer, err := aipow.NewIssuer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	// No replay cache: measuring pure verification cost.
	verifier, err := aipow.NewVerifier(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := issuer.Issue("203.0.113.9", 8)
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := aipow.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifier.Verify(sol, "203.0.113.9"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsymmetryScore measures the AI-model cost per request.
func BenchmarkAsymmetryScore(b *testing.B) {
	data, err := aipow.GenerateDataset(aipow.DefaultDatasetConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(data))
	if err != nil {
		b.Fatal(err)
	}
	attrs := data[0].Attrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Score(attrs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFramework assembles the standard Decide pipeline used by the
// asymmetry and parallel-scaling benchmarks: trained reputation model over
// the synthetic dataset, Policy 2, static map store. Callbacks receive the
// store and may return options that extend or override the base wiring
// (later options win).
func benchFramework(b *testing.B, extra ...func(store *aipow.MapStore) []aipow.Option) *aipow.Framework {
	b.Helper()
	data, err := aipow.GenerateDataset(aipow.DefaultDatasetConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(data))
	if err != nil {
		b.Fatal(err)
	}
	store, err := aipow.NewMapStore(data[0].Attrs)
	if err != nil {
		b.Fatal(err)
	}
	opts := []aipow.Option{
		aipow.WithKey(benchKey),
		aipow.WithScorer(model),
		aipow.WithPolicy(aipow.Policy2()),
		aipow.WithSource(store),
	}
	for _, fn := range extra {
		opts = append(opts, fn(store)...)
	}
	fw, err := aipow.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return fw
}

// BenchmarkAsymmetryDecide measures the whole server-side decision path:
// attribute lookup → scoring → policy → challenge issuance.
func BenchmarkAsymmetryDecide(b *testing.B) {
	fw := benchFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Decide(aipow.RequestContext{IP: "198.51.100.1"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideTraced measures the decision path with a sampled
// decision-trace ring attached at the default 1-in-1024 rate. The
// unsampled iterations — all but ~0.1% — pay one atomic increment and
// one branch; the sampled ones write a fixed-size record into a
// preallocated slot. Both must stay allocation-free, and the aggregate
// ns/op must sit within a few percent of plain Decide (benchdump gates
// the ratio).
func BenchmarkDecideTraced(b *testing.B) {
	fw := benchFramework(b, func(store *aipow.MapStore) []aipow.Option {
		return []aipow.Option{aipow.WithObserveTrace(aipow.NewTraceRing(1024, 256))}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Decide(aipow.RequestContext{IP: "198.51.100.1"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideParallel measures the serving path under GOMAXPROCS-way
// concurrency — the millions-of-users shape: every iteration feeds the
// behavior tracker (Observe) and runs the decision over the combined
// static+live source, so the sharded tracker, pooled HMAC state, and
// pre-resolved counters are all on the measured path. Per-op time should
// stay near the serial figure instead of collapsing onto a global lock.
func BenchmarkDecideParallel(b *testing.B) {
	tracker, err := aipow.NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	fw := benchFramework(b, func(store *aipow.MapStore) []aipow.Option {
		source, err := aipow.NewCombinedSource(store, tracker)
		if err != nil {
			b.Fatal(err)
		}
		return []aipow.Option{aipow.WithSource(source), aipow.WithTracker(tracker)}
	})
	at := time.Unix(1000, 0)
	for _, ip := range benchIPs { // pre-seed per-IP state
		if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/api", At: at}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			ip := benchIPs[i%len(benchIPs)]
			i++
			if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/api", At: at}); err != nil {
				b.Error(err) // Fatal must not run off the benchmark goroutine
				return
			}
			if _, err := fw.Decide(aipow.RequestContext{IP: ip}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkDecideUnderSwap measures the decision path while a background
// goroutine hot-swaps the policy through Framework.Swap at a realistic
// control-plane cadence (~1 kHz, far above any real operator's). The
// serving path must stay allocation-free and within a few percent of the
// plain Decide figure: Decide reads the configuration with one atomic
// snapshot load, so swap churn costs it nothing.
func BenchmarkDecideUnderSwap(b *testing.B) {
	fw := benchFramework(b)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pol := aipow.Policy2()
			if i%2 == 1 {
				pol = aipow.Policy1()
			}
			if err := fw.SwapPolicy(pol); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Decide(aipow.RequestContext{IP: "198.51.100.1"}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkDecideUnderAdapt measures the decision path with the
// closed-loop feedback subsystem attached and stepping at ~1 kHz (far
// above the default 1 Hz controller cadence). The signal plane reads the
// pipeline's counters by polling — the serving path contributes nothing
// beyond its usual atomic counter increments — so Decide must stay
// allocation-free at an unchanged ns/op class.
func BenchmarkDecideUnderAdapt(b *testing.B) {
	data, err := aipow.GenerateDataset(aipow.DefaultDatasetConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(data))
	if err != nil {
		b.Fatal(err)
	}
	store, err := aipow.NewMapStore(data[0].Attrs)
	if err != nil {
		b.Fatal(err)
	}
	registry, err := aipow.NewComponentRegistry(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	if err := registry.RegisterScorer("model", func(params map[string]float64) (aipow.Scorer, error) {
		return model, nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := registry.RegisterSource("store", func(params map[string]float64, _ *aipow.Tracker) (aipow.AttributeSource, error) {
		return store, nil
	}); err != nil {
		b.Fatal(err)
	}
	dep, err := aipow.ParseDeployment(`
pipeline bench
  scorer model
  source store
  policy policy2
  adapt capacity 1000000
  adapt interval 1ms
  adapt escalate(when=rate>1e12, policy=policy1, hold=1s)
`)
	if err != nil {
		b.Fatal(err)
	}
	gk, err := aipow.NewGatekeeper(registry, dep)
	if err != nil {
		b.Fatal(err)
	}
	fw := gk.Route("/", "")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := gk.StepControllers(time.Now()); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Decide(aipow.RequestContext{IP: "198.51.100.1"}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkDecideWithEvidence measures the confidence-carrying serving
// path end to end with the behavioral-evidence loop closed: Observe feeds
// the tracker, Decide runs the redemption-wrapped verdict scorer under a
// confidence-shaped policy over the combined source, and Verify writes
// solve evidence back into the tracker. Every layer the scoring-verdict
// refactor added sits on this path, and all of it must stay
// allocation-free.
func BenchmarkDecideWithEvidence(b *testing.B) {
	fw := evidenceFramework(b)
	const ip = "198.51.100.1"
	at := time.Unix(1000, 0)
	if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/api", At: at}); err != nil {
		b.Fatal(err)
	}
	dec, err := fw.Decide(aipow.RequestContext{IP: ip})
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := aipow.NewSolver().Solve(context.Background(), dec.Challenge)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fw.Observe(aipow.RequestInfo{IP: ip, Path: "/api", At: at}); err != nil {
			b.Fatal(err)
		}
		if _, err := fw.Decide(aipow.RequestContext{IP: ip}); err != nil {
			b.Fatal(err)
		}
		if err := fw.Verify(sol, ip); err != nil {
			b.Fatal(err)
		}
	}
}

// evidenceFramework assembles the recommended production serving
// configuration the evidence benchmarks measure: redemption-wrapped
// verdict scorer, confidence-shaped policy, combined static+tracker
// source, and buffered evidence write-back. Replay protection is off so
// one pre-solved challenge can be redeemed repeatedly, like the
// pure-verification benchmarks.
func evidenceFramework(b *testing.B) *aipow.Framework {
	b.Helper()
	tracker, err := aipow.NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	fw := benchFramework(b, func(store *aipow.MapStore) []aipow.Option {
		redeem, err := aipow.NewRedemptionScorer(mustModel(b))
		if err != nil {
			b.Fatal(err)
		}
		shaped, err := aipow.NewConfidenceShapedPolicy(aipow.Policy2(), 5, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		source, err := aipow.NewCombinedSource(store, tracker)
		if err != nil {
			b.Fatal(err)
		}
		return []aipow.Option{
			aipow.WithScorer(redeem),
			aipow.WithPolicy(shaped),
			aipow.WithSource(source),
			aipow.WithTracker(tracker),
			aipow.WithEvidenceBuffer(64, time.Millisecond),
			aipow.WithReplayCacheSize(0),
		}
	})
	b.Cleanup(func() { fw.Close() })
	return fw
}

// BenchmarkDecideBatch measures the same full evidence loop through the
// batch front door — ObserveBatch, DecideBatch, VerifyBatch over
// 64-request batches — at per-request granularity (b.N counts requests,
// not batches), so its ns/op is directly comparable to
// BenchmarkDecideWithEvidence and gated below it: the batch path amortizes
// the snapshot load, clock reads, scratch checkout, shard locking, and
// seed entropy across the batch.
func BenchmarkDecideBatch(b *testing.B) {
	fw := evidenceFramework(b)
	const size = 64
	at := time.Unix(1000, 0)
	reqs := make([]aipow.RequestContext, size)
	obs := make([]aipow.RequestInfo, size)
	bindings := make([]string, size)
	for i := range reqs {
		ip := benchIPs[i%len(benchIPs)]
		reqs[i] = aipow.RequestContext{IP: ip}
		obs[i] = aipow.RequestInfo{IP: ip, Path: "/api", At: at}
		bindings[i] = ip
	}
	if err := fw.ObserveBatch(obs); err != nil {
		b.Fatal(err)
	}
	decs, err := fw.DecideBatch(reqs, nil)
	if err != nil {
		b.Fatal(err)
	}
	// One pre-solved challenge per distinct client, redeemed repeatedly.
	sols := make([]aipow.Solution, size)
	solver := aipow.NewSolver()
	for i := range sols {
		if i < len(benchIPs) {
			sol, _, err := solver.Solve(context.Background(), decs[i].Challenge)
			if err != nil {
				b.Fatal(err)
			}
			sols[i] = sol
		} else {
			sols[i] = sols[i%len(benchIPs)]
		}
	}
	verrs := make([]error, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += size {
		n := min(size, b.N-i)
		if err := fw.ObserveBatch(obs[:n]); err != nil {
			b.Fatal(err)
		}
		if decs, err = fw.DecideBatch(reqs[:n], decs); err != nil {
			b.Fatal(err)
		}
		if verrs, err = fw.VerifyBatch(sols[:n], bindings[:n], verrs); err != nil {
			b.Fatal(err)
		}
		for _, verr := range verrs {
			if verr != nil {
				b.Fatal(verr)
			}
		}
	}
}

// mustModel trains the benchmark reputation model (cached per run would
// not matter: training is outside every timer).
func mustModel(b *testing.B) *aipow.ReputationModel {
	b.Helper()
	data, err := aipow.GenerateDataset(aipow.DefaultDatasetConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(data))
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// BenchmarkVerifyParallel measures concurrent solution verification (no
// replay cache, matching BenchmarkAsymmetryVerify's pure-verification
// setup).
func BenchmarkVerifyParallel(b *testing.B) {
	issuer, err := aipow.NewIssuer(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	verifier, err := aipow.NewVerifier(benchKey)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := issuer.Issue("203.0.113.9", 8)
	if err != nil {
		b.Fatal(err)
	}
	sol, _, err := aipow.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := verifier.Verify(sol, "203.0.113.9"); err != nil {
				b.Error(err) // Fatal must not run off the benchmark goroutine
				return
			}
		}
	})
}

// benchIPs spreads parallel decisions over a handful of clients so shard
// striping and per-IP state are actually exercised.
var benchIPs = []string{
	"198.51.100.1", "198.51.100.2", "198.51.100.3", "198.51.100.4",
	"203.0.113.5", "203.0.113.6", "203.0.113.7", "203.0.113.8",
}
