package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/obs"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// batchTestSource maps a spread of IPs onto the full threat range, so a
// batch crosses bypass, low-difficulty, and high-difficulty decisions.
func batchTestSource(t *testing.T, n int) (*features.MapStore, []string) {
	t.Helper()
	s, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	ips := make([]string, n)
	for i := range ips {
		ips[i] = fmt.Sprintf("192.0.2.%d", i)
		s.Put(ips[i], map[string]float64{"threat": float64(i % 11)})
	}
	return s, ips
}

// TestDecideBatchMatchesDecide is the end-to-end batch equivalence: both
// doors run the same decideRow kernel, so what remains to pin is the
// plumbing around it — row/decision alignment across chunk seams, bypass
// sentinels, and that batch-issued challenges are real.
func TestDecideBatchMatchesDecide(t *testing.T) {
	src, ips := batchTestSource(t, 700) // > 2 × maxDecideChunk: exercises chunk seams
	f := newTestFramework(t, WithSource(src), WithBypassBelow(1))

	reqs := make([]RequestContext, len(ips))
	for i, ip := range ips {
		reqs[i] = RequestContext{IP: ip}
	}
	batch, err := f.DecideBatch(reqs, nil)
	if err != nil {
		t.Fatalf("DecideBatch: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("DecideBatch returned %d decisions for %d requests", len(batch), len(reqs))
	}
	for i, req := range reqs {
		single, err := f.Decide(req)
		if err != nil {
			t.Fatalf("Decide %s: %v", req.IP, err)
		}
		got := batch[i]
		got.Challenge, single.Challenge = puzzle.Challenge{}, puzzle.Challenge{} // nonces differ
		if got != single {
			t.Errorf("ip %s: batch %+v, single %+v", req.IP, got, single)
		}
		if !batch[i].Bypassed && batch[i].Challenge.Binding != req.IP {
			t.Errorf("ip %s: batch challenge bound to %q", req.IP, batch[i].Challenge.Binding)
		}
	}
	challenged := batch[1] // threat 1: not bypassed
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), challenged.Challenge)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := f.Verify(sol, challenged.IP); err != nil {
		t.Fatalf("Verify of batch-issued challenge: %v", err)
	}
}

// TestDecideBatchReusesDst pins the dst contract: a capacious dst comes
// back resliced, not reallocated.
func TestDecideBatchReusesDst(t *testing.T) {
	src, ips := batchTestSource(t, 8)
	f := newTestFramework(t, WithSource(src))
	reqs := make([]RequestContext, len(ips))
	for i, ip := range ips {
		reqs[i] = RequestContext{IP: ip}
	}
	dst := make([]Decision, 0, len(reqs))
	out, err := f.DecideBatch(reqs, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[:1][0] {
		t.Error("DecideBatch reallocated a dst with sufficient capacity")
	}
}

// TestVerifyBatchMatchesVerify is the end-to-end redemption equivalence:
// both doors run the same verifyOne, so one mixed batch pins the plumbing
// — verdict alignment, counters, the shared replay cache, and the batch's
// own observability (one batch-stage latency sample per call, per-item
// trace records like DecideBatch's).
func TestVerifyBatchMatchesVerify(t *testing.T) {
	src, ips := batchTestSource(t, 6)
	ring := obs.NewTraceRing(1, 64)
	f := newTestFramework(t, WithSource(src), WithObserveTrace(ring))

	sols := make([]puzzle.Solution, len(ips))
	for i, ip := range ips {
		dec, err := f.Decide(RequestContext{IP: ip})
		if err != nil {
			t.Fatal(err)
		}
		sol, _, err := puzzle.NewSolver().Solve(context.Background(), dec.Challenge)
		if err != nil {
			t.Fatal(err)
		}
		sols[i] = sol
	}
	sols[3].Challenge.Tag[0] ^= 0xFF // forged
	batchBefore := f.LatencySnapshots()["batch"].Count

	verdicts, err := f.VerifyBatch(sols, ips, nil)
	if err != nil {
		t.Fatalf("VerifyBatch: %v", err)
	}
	for i, v := range verdicts {
		if want := i == 3; (v != nil) != want {
			t.Errorf("solution %d verdict = %v, want rejected=%v", i, v, want)
		}
	}
	if st := f.Stats(); st["verified"] != 5 || st["rejected"] != 1 {
		t.Errorf("verified/rejected = %v/%v, want 5/1", st["verified"], st["rejected"])
	}
	// Batch-verified solutions are burned in the same replay cache.
	if err := f.Verify(sols[0], ips[0]); !errors.Is(err, puzzle.ErrReplayed) {
		t.Errorf("single-op replay of a batch-verified solution = %v, want ErrReplayed", err)
	}

	if got := f.LatencySnapshots()["batch"].Count - batchBefore; got != 1 {
		t.Errorf("batch-stage latency samples from one VerifyBatch = %d, want 1", got)
	}
	outcomes := map[string]int{}
	for _, s := range ring.Snapshot() {
		if s.Kind == "verify" {
			outcomes[s.Outcome]++
		}
	}
	// 5 accepted + 1 forged from the batch, 1 replay from the single op.
	if outcomes["ok"] != 5 || outcomes["bad_tag"] != 1 || outcomes["replayed"] != 1 {
		t.Errorf("traced verify outcomes = %v, want 5 ok, 1 bad_tag, 1 replayed", outcomes)
	}
}

// TestBatchHotSwapRace hammers DecideBatch and VerifyBatch against
// concurrent configuration hot-swaps and buffered evidence flushes; run
// under -race this pins the lock-free snapshot discipline of the batch
// paths.
func TestBatchHotSwapRace(t *testing.T) {
	tracker, err := features.NewTracker(features.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	src, ips := batchTestSource(t, 64)
	f := newTestFramework(t,
		WithSource(src),
		WithTracker(tracker),
		WithEvidenceBuffer(16, time.Millisecond))
	defer f.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]RequestContext, len(ips))
			for i, ip := range ips {
				reqs[i] = RequestContext{IP: ip}
			}
			var dst []Decision
			obs := make([]features.RequestInfo, len(ips))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				dst, err = f.DecideBatch(reqs, dst)
				if err != nil {
					t.Errorf("DecideBatch: %v", err)
					return
				}
				for i, ip := range ips {
					obs[i] = features.RequestInfo{IP: ip, At: time.Now()}
				}
				if err := f.ObserveBatch(obs); err != nil {
					t.Errorf("ObserveBatch: %v", err)
					return
				}
				sols := []puzzle.Solution{{Challenge: dst[0].Challenge}}
				sols[0].Challenge.Tag[0] ^= 0xFF
				if _, err := f.VerifyBatch(sols, ips[:1], nil); err != nil {
					t.Errorf("VerifyBatch: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		pol := policy.Policy1()
		if i%2 == 0 {
			pol = policy.Policy2()
		}
		if err := f.SwapPolicy(pol); err != nil {
			t.Fatalf("SwapPolicy: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCloseStopsFlushLoop pins the flusher lifecycle: building a buffered
// framework starts exactly one goroutine, Close stops it and drains the
// buffers, and a second Close is a no-op. Control-plane rebuilds lean on
// this — a leaked flush loop per SIGHUP would bleed the server dry.
func TestCloseStopsFlushLoop(t *testing.T) {
	tracker, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	frameworks := make([]*Framework, 8)
	for i := range frameworks {
		frameworks[i] = newTestFramework(t,
			WithTracker(tracker),
			WithEvidenceBuffer(64, time.Hour)) // interval never fires: drain is Close's job
	}
	// Strand evidence in the buffers, under the inline-flush limit.
	for i, f := range frameworks {
		if err := f.Observe(features.RequestInfo{IP: fmt.Sprintf("198.51.100.%d", i), At: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if pending := tracker.PendingWriteBack(); pending != len(frameworks) {
		t.Fatalf("%d events pending, want %d", pending, len(frameworks))
	}
	for _, f := range frameworks {
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	if pending := tracker.PendingWriteBack(); pending != 0 {
		t.Errorf("%d events still pending after Close; drain is part of the contract", pending)
	}
	// The flush goroutines exit asynchronously after Close returns from
	// the handshake; give the scheduler a moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after Close — flush loop leaked", before, after)
	}

	// Closed frameworks still serve; evidence writes degrade to synchronous.
	f := frameworks[0]
	if err := f.Observe(features.RequestInfo{IP: "198.51.100.200", At: time.Now()}); err != nil {
		t.Fatalf("Observe after Close: %v", err)
	}
	if pending := tracker.PendingWriteBack(); pending != 0 {
		t.Errorf("post-Close Observe buffered %d events; must be synchronous", pending)
	}
	if _, err := f.Decide(RequestContext{IP: "10.0.0.1"}); err != nil {
		t.Errorf("Decide after Close: %v", err)
	}
}
