package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aipow"
	"aipow/bench/workload"
	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// The layer run decomposes an op into its layers without touching the
// program: it builds the deployment three times from the same inputs and
// feeds all three the same seeded op stream, chunk by chunk, so tracker and
// replay state evolve alike —
//
//	whole   the routed middleware and the batch handler, as embedded serves them
//	core    the same gatekeeper driven one call down: Route, Observe, Decide,
//	        Verify and their batch forms
//	leaves  the parts those calls are made of, each on its own: tracker,
//	        source fill, model, policy, issuer, verifier, replay cache
//
// A span covers one layer's calls for one chunk of chunkSize consecutive
// ops. A core span's Parent is the whole span of the same chunk, a leaf
// span's Parent the core span it is part of; a layer's self time is its
// span minus its children's. What the parts do not cover is the budget's
// unattributed share — the thing a later issue goes looking for.

// layerResult is what the layer run yields.
type layerResult struct {
	metrics   map[string]float64
	checks    []check
	tracePath string
	budget    string // the challenge and redeem budgets, part by part

	// handlerNS is the in-process handler time of one op of each socket
	// workload's mix — what server_cpu_us_per_op would be with no
	// net/http, sockets or scheduler underneath.
	handlerNS map[string]float64
}

// leaves are the deployment's parts, built directly from their packages'
// constructors the way core.New and cmd/powserver assemble them.
type leaves struct {
	tracker  *features.Tracker
	source   features.VectorSource
	schema   *features.Schema
	model    features.VectorScorer
	pol      policy.Policy
	issuer   *puzzle.Issuer
	verifier *puzzle.Verifier
	issuerMH *puzzle.Issuer
	verifyMH *puzzle.Verifier
}

// pipelineTTL is the `ttl 10m` of workload.DeploymentSpec.
const pipelineTTL = 10 * time.Minute

func (d *deployment) newLeaves() (*leaves, error) {
	store, err := d.newStore()
	if err != nil {
		return nil, err
	}
	lv := &leaves{model: d.model, schema: d.model.Schema(), pol: policy.Policy2()}
	if lv.tracker, err = features.NewTracker(); err != nil {
		return nil, err
	}
	if lv.source, err = features.NewCombined(store, lv.tracker); err != nil {
		return nil, err
	}
	pair := func(backend puzzle.Backend) (*puzzle.Issuer, *puzzle.Verifier, error) {
		auth := puzzle.NewAuthCache()
		iss, err := puzzle.NewIssuer(d.in.Key, puzzle.WithTTL(pipelineTTL),
			puzzle.WithIssuerAuthCache(auth), puzzle.WithIssuerBackend(backend))
		if err != nil {
			return nil, nil, err
		}
		ver, err := puzzle.NewVerifier(d.in.Key, puzzle.WithVerifierAuthCache(auth),
			puzzle.WithVerifierBackend(backend), puzzle.WithReplayCache(puzzle.NewReplayCache(1<<16, nil)))
		return iss, ver, err
	}
	if lv.issuer, lv.verifier, err = pair(puzzle.Hashcash()); err != nil {
		return nil, err
	}
	balloon, err := puzzle.ParseBackendSpec("balloon")
	if err != nil {
		return nil, err
	}
	if lv.issuerMH, lv.verifyMH, err = pair(balloon); err != nil {
		return nil, err
	}
	return lv, nil
}

// layerRun carries the three deployments and the spans through the run.
type layerRun struct {
	d      *deployment
	cfg    config
	tr     *tracer
	whole  *inproc
	core   *inproc
	lv     *leaves
	chunk  int // next chunk id
	stream uint64
	failed []string

	// Tokens redeemed by the redeem chunks, kept as the replay kind's input.
	redeemedWhole []forgedEntry
	redeemedCore  []puzzle.Solution
	redeemedLeaf  []puzzle.Solution
}

func (r *layerRun) failf(format string, a ...any) {
	if len(r.failed) < 8 {
		r.failed = append(r.failed, fmt.Sprintf(format, a...))
	}
}

// span times fn as one span.
func (r *layerRun) span(name string, parent int, fn func()) int {
	id := r.tr.begin(name, parent, r.chunk)
	fn()
	r.tr.end(id)
	return id
}

// clients returns the next chunk of the op stream: chunkSize clients in
// the flood mix, or the solving mix when the ops will redeem.
func (r *layerRun) clients(solver bool) ([]string, []int32) {
	ips := make([]string, chunkSize)
	idx := make([]int32, chunkSize)
	for j := range ips {
		idx[j] = r.d.in.MixIP(r.stream+uint64(j), solver)
		ips[j] = r.d.in.IPs[idx[j]]
	}
	r.stream += chunkSize
	return ips, idx
}

func runLayers(d *deployment, cfg config, label string) (*layerResult, error) {
	r := &layerRun{d: d, cfg: cfg, tr: newTracer()}
	var err error
	if r.whole, err = d.newInproc(); err != nil {
		return nil, err
	}
	defer r.whole.gk.Close()
	if r.core, err = d.newInproc(); err != nil {
		return nil, err
	}
	defer r.core.gk.Close()
	if r.lv, err = d.newLeaves(); err != nil {
		return nil, err
	}
	// All three trackers start at capacity, like the workloads'.
	for _, ip := range []*inproc{r.whole, r.core} {
		if err := fillTrackerInproc(d, ip); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	for i := 0; i < trackerFill; i++ {
		if err := r.lv.tracker.Observe(features.RequestInfo{IP: fillIP(d.in, i), Path: workload.PathWeb, At: now}); err != nil {
			return nil, err
		}
	}

	res := &layerResult{metrics: make(map[string]float64), handlerNS: make(map[string]float64)}
	m := res.metrics
	// Start from a collected heap: the workload that ran before this left
	// garbage whose collection the first chunks would otherwise pay for.
	runtime.GC()

	gap := r.challengeChunks(cfg.chunks)
	r.redeemChunks(cfg.chunks)
	for _, kind := range workload.HashcashRejects {
		r.rejectChunks(kind, max(cfg.chunks/4, 1))
	}
	for _, kind := range []string{workload.WrongNonceMH, workload.ReplayMH} {
		if err := r.rejectChunksMH(kind, max(cfg.chunks/48, 1)); err != nil {
			return nil, err
		}
	}
	if err := r.batchChunks(max(cfg.chunks/2, 2)); err != nil {
		return nil, err
	}
	r.replayChunks(cfg.chunks)
	m["puzzle.solve_ns_per_hash"] = r.solveCost()

	per := func(name string, ops float64) float64 { return medianOf(r.tr.perOp(name, ops)) }
	self := func(name string, ops float64) float64 { return medianOf(r.tr.selfPerOp(name, ops)) }
	const hot = chunkSize / 5.0 // every fifth client is a hot-set client
	m["httpmw.challenge_ns"] = per("httpmw.challenge", chunkSize)
	m["httpmw.redeem_ns"] = per("httpmw.redeem", chunkSize)
	m["httpmw.batch_item_ns"] = per("httpmw.batch", workload.BatchItems)
	m["httpmw.self_challenge_ns"] = self("httpmw.challenge", chunkSize)
	m["httpmw.self_redeem_ns"] = self("httpmw.redeem", chunkSize)
	m["httpmw.self_batch_item_ns"] = self("httpmw.batch", workload.BatchItems)
	m["control.route_ns"] = per("control.route", chunkSize)
	m["core.decide_ns"] = per("core.decide", chunkSize)
	m["core.decide_self_ns"] = self("core.decide", chunkSize)
	m["core.observe_ns"] = per("core.observe", chunkSize)
	m["core.verify_ok_ns"] = per("core.verify_ok", chunkSize)
	m["core.verify_reject_ns"] = per("core.verify_reject", chunkSize)
	m["core.decide_batch_item_ns"] = per("core.decide_batch", workload.BatchItems/2)
	m["core.verify_batch_item_ns"] = per("core.verify_batch", workload.BatchItems/2)
	m["core.observe_batch_item_ns"] = per("core.observe_batch", workload.BatchItems)
	m["features.fill_ns"] = per("features.fill", chunkSize)
	m["features.observe_hot_ns"] = per("features.observe_hot", hot)
	m["features.observe_evict_ns"] = per("features.observe_evict", chunkSize-hot)
	m["features.record_verify_ns"] = per("features.record_verify", chunkSize)
	m["reputation.score_ns"] = per("reputation.score", chunkSize)
	m["policy.difficulty_ns"] = per("policy.difficulty", chunkSize)
	m["policy.difficulty_gap_bits"] = gap
	m["puzzle.issue_ns"] = per("puzzle.issue", chunkSize)
	m["puzzle.marshal_ns"] = per("puzzle.marshal", chunkSize)
	m["puzzle.unmarshal_ns"] = per("puzzle.unmarshal", chunkSize)
	m["puzzle.verify_ok_ns"] = per("puzzle.verify_ok", chunkSize)
	m["puzzle.replay_remember_ns"] = per("puzzle.replay_remember", chunkSize)
	m["puzzle.replay_remember_parallel_ns"] = per("puzzle.replay_remember_parallel", chunkSize)
	var rejectNS, forgedNS float64
	for _, kind := range workload.ForgedKinds {
		m["puzzle.verify_"+kind+"_ns"] = per("puzzle.verify_"+kind, chunkSize)
		forgedNS += per("httpmw.reject."+kind, chunkSize) / float64(len(workload.ForgedKinds))
	}
	for _, kind := range workload.HashcashRejects {
		rejectNS += per("httpmw.reject."+kind, chunkSize) / float64(len(workload.HashcashRejects))
	}
	m["httpmw.reject_ns"] = rejectNS

	res.handlerNS[workload.Flood] = m["httpmw.challenge_ns"]
	res.handlerNS[workload.Redeem] = m["httpmw.challenge_ns"] + m["httpmw.redeem_ns"]
	res.handlerNS[workload.Forged] = forgedNS
	res.handlerNS[workload.Batch] = m["httpmw.batch_item_ns"]

	r.allocs(m)

	// The budget: what share of the whole the named parts account for.
	covChallenge := r.coverage("httpmw.challenge")
	covRedeem := r.coverage("httpmw.redeem")
	m["budget.coverage_challenge"] = covChallenge
	m["budget.coverage_redeem"] = covRedeem
	var b strings.Builder
	fmt.Fprintf(&b, "\nbudget, ns per op (median over chunks of %d ops)\n", chunkSize)
	fmt.Fprintf(&b, "  httpmw.challenge %.0f = control.route %.0f + core.observe %.0f + core.decide %.0f + puzzle.marshal %.0f + unattributed %.0f (coverage %.3f)\n",
		m["httpmw.challenge_ns"], m["control.route_ns"], m["core.observe_ns"], m["core.decide_ns"], m["puzzle.marshal_ns"], m["httpmw.self_challenge_ns"], covChallenge)
	fmt.Fprintf(&b, "    core.decide %.0f = features.fill %.0f + reputation.score %.0f + policy.difficulty %.0f + puzzle.issue %.0f + unattributed %.0f\n",
		m["core.decide_ns"], m["features.fill_ns"], m["reputation.score_ns"], m["policy.difficulty_ns"], m["puzzle.issue_ns"], m["core.decide_self_ns"])
	fmt.Fprintf(&b, "  httpmw.redeem %.0f = control.route %.0f + puzzle.unmarshal %.0f + core.verify_ok %.0f + core.observe %.0f + unattributed %.0f (coverage %.3f)\n",
		m["httpmw.redeem_ns"], m["control.route_ns"], m["puzzle.unmarshal_ns"], m["core.verify_ok_ns"], m["core.observe_ns"], m["httpmw.self_redeem_ns"], covRedeem)
	fmt.Fprintf(&b, "    core.verify_ok %.0f ⊇ puzzle.verify_ok %.0f (⊇ puzzle.replay_remember %.0f) + features.record_verify %.0f",
		m["core.verify_ok_ns"], m["puzzle.verify_ok_ns"], m["puzzle.replay_remember_ns"], m["features.record_verify_ns"])
	res.budget = b.String()

	// Last, because it churns the whole deployment's state: the embedded
	// workload with and without a span per chunk.
	m["trace.overhead_ratio"] = r.traceOverhead()

	if res.tracePath, err = r.tr.write(cfg.outDir, "trace-"+label+".json"); err != nil {
		return nil, err
	}
	res.checks = append(res.checks, check{
		Name:   "layers.outputs",
		OK:     len(r.failed) == 0,
		Detail: fmt.Sprintf("%d spans; wrong outputs: %v", len(r.tr.spans), r.failed),
	})
	return res, nil
}

// coverage is the median over chunks of (Σ child spans ÷ the span).
func (r *layerRun) coverage(name string) float64 {
	whole, self := r.tr.perOp(name, 1), r.tr.selfPerOp(name, 1)
	cov := make(map[int]float64, len(whole))
	for c, w := range whole {
		if w > 0 {
			cov[c] = (w - self[c]) / w
		}
	}
	return medianOf(cov)
}

// challengeChunks drives unsolved requests through all three levels and
// returns the difficulty gap between feed-malicious and feed-benign
// clients.
func (r *layerRun) challengeChunks(n int) float64 {
	in, lv := r.d.in, r.lv
	call := newCaller(r.whole.handler, workload.PathWeb)
	dim := lv.schema.Len()
	vecs := make([]float64, chunkSize*dim)
	scores := make([]float64, chunkSize)
	diffs := make([]int, chunkSize)
	decs := make([]core.Decision, chunkSize)
	var rec recorder
	for c := 0; c < n; c, r.chunk = c+1, r.chunk+1 {
		base := r.stream
		ips, idx := r.clients(false)
		now := time.Now()
		root := r.span("httpmw.challenge", -1, func() {
			for _, ip := range ips {
				if status, _ := call.call(ip, ""); status != aipow.StatusChallenge {
					r.failf("challenge for %s answered %d", ip, status)
				}
			}
		})

		var fw *core.Framework
		r.span("control.route", root, func() {
			for range ips {
				fw = r.core.gk.Route(workload.PathWeb, "")
			}
		})
		observe := r.span("core.observe", root, func() {
			for _, ip := range ips {
				_ = fw.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			}
		})
		decide := r.span("core.decide", root, func() {
			for j, ip := range ips {
				decs[j], _ = fw.Decide(core.RequestContext{IP: ip})
			}
		})
		r.span("puzzle.marshal", root, func() {
			for j := range decs {
				_, _ = decs[j].Challenge.MarshalText()
			}
		})
		for j, dec := range decs {
			if dec.Challenge.Binding != ips[j] {
				r.failf("decide for %s issued no bound challenge", ips[j])
			}
			rec.priced(in, idx[j], dec.Difficulty)
		}

		// Observe the chunk's hot clients apart from the cold ones, each
		// of which is a miss and an eviction.
		var hot, cold []string
		for j, ip := range ips {
			if workload.HotOp(base + uint64(j)) {
				hot = append(hot, ip)
			} else {
				cold = append(cold, ip)
			}
		}
		r.span("features.observe_hot", observe, func() {
			for _, ip := range hot {
				_ = lv.tracker.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			}
		})
		r.span("features.observe_evict", observe, func() {
			for _, ip := range cold {
				_ = lv.tracker.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			}
		})
		r.span("features.fill", decide, func() {
			for j, ip := range ips {
				lv.source.AttributesVector(vecs[j*dim:(j+1)*dim], lv.schema, ip, now)
			}
		})
		r.span("reputation.score", decide, func() {
			for j := range ips {
				scores[j], _ = lv.model.ScoreVector(vecs[j*dim : (j+1)*dim])
			}
		})
		r.span("policy.difficulty", decide, func() {
			for j := range ips {
				diffs[j] = lv.pol.Difficulty(scores[j])
			}
		})
		r.span("puzzle.issue", decide, func() {
			for j, ip := range ips {
				if _, err := lv.issuer.Issue(ip, diffs[j]); err != nil {
					r.failf("issue: %v", err)
				}
			}
		})
		for j := range ips {
			if diffs[j] != decs[j].Difficulty {
				r.failf("layers priced %s at %d, core at %d", ips[j], diffs[j], decs[j].Difficulty)
			}
		}
	}
	return difficultyGap(&rec)
}

// solveAll solves chs in place of a client.
func (r *layerRun) solveAll(chs []puzzle.Challenge) []puzzle.Solution {
	sols := make([]puzzle.Solution, len(chs))
	for j, ch := range chs {
		sol, _, err := solver.Solve(context.Background(), ch)
		if err != nil {
			r.failf("solve: %v", err)
		}
		sols[j] = sol
	}
	return sols
}

// redeemChunks drives solved redemptions through all three levels. The
// challenges being redeemed are fetched untimed.
func (r *layerRun) redeemChunks(n int) {
	lv := r.lv
	call := newCaller(r.whole.handler, workload.PathWeb)
	var rec recorder
	for c := 0; c < n; c, r.chunk = c+1, r.chunk+1 {
		ips, _ := r.clients(true)
		now := time.Now()
		fw := r.core.gk.Route(workload.PathWeb, "")
		tokens := make([]string, chunkSize)
		coreCh := make([]puzzle.Challenge, chunkSize)
		leafCh := make([]puzzle.Challenge, chunkSize)
		for j, ip := range ips {
			status, token := call.call(ip, "")
			ch, err := challengeOf(status, token, ip)
			if err != nil {
				r.failf("redeem chunk: %v", err)
				continue
			}
			if tokens[j], err = solve(ch, &rec); err != nil {
				r.failf("redeem chunk: %v", err)
			}
			_ = fw.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			dec, _ := fw.Decide(core.RequestContext{IP: ip})
			coreCh[j] = dec.Challenge
			_ = lv.tracker.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			leafCh[j], _ = lv.issuer.Issue(ip, dec.Difficulty)
		}
		coreSols, leafSols := r.solveAll(coreCh), r.solveAll(leafCh)
		coreTokens := make([][]byte, chunkSize)
		for j := range coreSols {
			coreTokens[j], _ = coreSols[j].MarshalText()
		}

		root := r.span("httpmw.redeem", -1, func() {
			for j, ip := range ips {
				if status, _ := call.call(ip, tokens[j]); status != http.StatusOK {
					r.failf("solved token for %s answered %d", ip, status)
				}
			}
		})
		r.span("control.route", root, func() {
			for range ips {
				fw = r.core.gk.Route(workload.PathWeb, "")
			}
		})
		parsed := make([]puzzle.Solution, chunkSize)
		r.span("puzzle.unmarshal", root, func() {
			for j := range parsed {
				_ = parsed[j].UnmarshalText(coreTokens[j])
			}
		})
		verify := r.span("core.verify_ok", root, func() {
			for j, ip := range ips {
				if err := fw.Verify(parsed[j], ip); err != nil {
					r.failf("core verify: %v", err)
				}
			}
		})
		r.span("core.observe", root, func() {
			for _, ip := range ips {
				_ = fw.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			}
		})
		r.span("puzzle.verify_ok", verify, func() {
			for j, ip := range ips {
				if err := lv.verifier.VerifyAt(&leafSols[j], ip, now); err != nil {
					r.failf("leaf verify: %v", err)
				}
			}
		})
		r.span("features.record_verify", verify, func() {
			for j, ip := range ips {
				lv.tracker.RecordVerify(ip, leafSols[j].Challenge.Difficulty, true, now)
			}
		})

		// Keep the newest redemptions: the replay cache evicts oldest first.
		r.redeemedWhole = r.redeemedWhole[:0]
		for j, ip := range ips {
			r.redeemedWhole = append(r.redeemedWhole, forgedEntry{ip: ip, token: tokens[j]})
		}
		r.redeemedCore, r.redeemedLeaf = parsed, leafSols
	}
}

// rejectChunks drives one hashcash reject kind through all three levels.
func (r *layerRun) rejectChunks(kind string, n int) {
	lv := r.lv
	call := newCaller(r.whole.handler, workload.PathWeb)
	for c := 0; c < n; c, r.chunk = c+1, r.chunk+1 {
		ips, _ := r.clients(true)
		now := time.Now()
		fw := r.core.gk.Route(workload.PathWeb, "")
		whole := make([]forgedEntry, chunkSize)
		coreSols := make([]puzzle.Solution, chunkSize)
		leafSols := make([]puzzle.Solution, chunkSize)
		present := make([]string, chunkSize)
		for j, ip := range ips {
			present[j] = ip
			if kind == workload.Replay {
				whole[j] = r.redeemedWhole[j]
				coreSols[j], leafSols[j] = r.redeemedCore[j], r.redeemedLeaf[j]
				present[j] = whole[j].ip
				continue
			}
			status, token := call.call(ip, "")
			ch, err := challengeOf(status, token, ip)
			if err != nil {
				r.failf("reject chunk: %v", err)
				continue
			}
			_ = fw.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			dec, _ := fw.Decide(core.RequestContext{IP: ip})
			_ = lv.tracker.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			leaf, _ := lv.issuer.Issue(ip, dec.Difficulty)
			if kind == workload.WrongBinding {
				present[j] = ips[(j+1)%chunkSize]
			} else {
				ch.Tag[0] ^= 0x80
				dec.Challenge.Tag[0] ^= 0x80
				leaf.Tag[0] ^= 0x80
			}
			whole[j] = forgedEntry{ip: present[j], token: tokenOf(ch, 0)}
			coreSols[j] = puzzle.Solution{Challenge: dec.Challenge}
			leafSols[j] = puzzle.Solution{Challenge: leaf}
		}

		root := r.span("httpmw.reject."+kind, -1, func() {
			for _, e := range whole {
				if status, _ := call.call(e.ip, e.token); status != aipow.StatusChallenge {
					r.failf("forged %s answered %d", kind, status)
				}
			}
		})
		verify := r.span("core.verify_reject", root, func() {
			for j := range coreSols {
				if fw.Verify(coreSols[j], present[j]) == nil {
					r.failf("core accepted forged %s", kind)
				}
			}
		})
		// The whole deployment re-challenged every reject; keep the core
		// deployment's tracker and counters in step, untimed.
		for _, ip := range present {
			_ = fw.Observe(features.RequestInfo{IP: ip, Path: workload.PathWeb, At: now})
			_, _ = fw.Decide(core.RequestContext{IP: ip})
		}
		r.span("puzzle.verify_"+kind, verify, func() {
			for j := range leafSols {
				if lv.verifier.VerifyAt(&leafSols[j], present[j], now) == nil {
					r.failf("leaf verifier accepted forged %s", kind)
				}
			}
		})
	}
}

// rejectChunksMH drives a memory-hard reject kind through the whole
// deployment and the leaf verifier. Every evaluation costs a balloon fill,
// so a chunk cycles a small pool and there are few chunks.
func (r *layerRun) rejectChunksMH(kind string, n int) error {
	lv, in := r.lv, r.d.in
	call := newCaller(r.whole.handler, workload.PathMH)
	pool := make([]forgedEntry, r.cfg.pool)
	leaf := make([]puzzle.Solution, r.cfg.pool)
	var rec recorder
	now := time.Now()
	for e := range pool {
		ip := in.IPs[in.Hot[e%workload.HotSetSize]]
		status, token := call.call(ip, "")
		ch, err := challengeOf(status, token, ip)
		if err != nil {
			return fmt.Errorf("bench: layer run, %s pool: %w", kind, err)
		}
		lch, err := lv.issuerMH.Issue(ip, ch.Difficulty)
		if err != nil {
			return err
		}
		pool[e].ip = ip
		if kind == workload.ReplayMH {
			if pool[e].token, err = solve(ch, &rec); err != nil {
				return err
			}
			if status, _ := call.call(ip, pool[e].token); status != http.StatusOK {
				return fmt.Errorf("bench: layer run, %s pool: first redemption answered %d", kind, status)
			}
			leaf[e] = r.solveAll([]puzzle.Challenge{lch})[0]
			if err := lv.verifyMH.VerifyAt(&leaf[e], ip, now); err != nil {
				return err
			}
			continue
		}
		nonce := uint64(0)
		for ch.Meets(nonce) {
			nonce++
		}
		pool[e].token = tokenOf(ch, nonce)
		leaf[e] = puzzle.Solution{Challenge: lch}
		for lch.Meets(leaf[e].Nonce) {
			leaf[e].Nonce++
		}
	}
	for c := 0; c < n; c, r.chunk = c+1, r.chunk+1 {
		root := r.span("httpmw.reject."+kind, -1, func() {
			for j := 0; j < chunkSize; j++ {
				e := pool[j%len(pool)]
				if status, _ := call.call(e.ip, e.token); status != aipow.StatusChallenge {
					r.failf("forged %s answered %d", kind, status)
				}
			}
		})
		r.span("puzzle.verify_"+kind, root, func() {
			for j := 0; j < chunkSize; j++ {
				e := j % len(pool)
				if lv.verifyMH.VerifyAt(&leaf[e], pool[e].ip, now) == nil {
					r.failf("leaf verifier accepted forged %s", kind)
				}
			}
		})
	}
	return nil
}

// bodySink is a ResponseWriter that keeps the body, for the batch handler.
type bodySink struct {
	sink
	body bytes.Buffer
}

func (s *bodySink) Write(p []byte) (int, error) { return s.body.Write(p) }

// batchChunks drives POST /batch bodies — 128 decisions plus 128
// redemptions of the previous body's challenges — through the whole
// deployment's batch handler and the core deployment's batch calls.
func (r *layerRun) batchChunks(n int) error {
	handler, err := aipow.NewRoutedHTTPBatchHandler(r.whole.gk)
	if err != nil {
		return err
	}
	const fresh = workload.BatchItems / 2
	var rec recorder
	var prevWhole []pending
	var prevCore []core.Decision
	var body []byte
	// One extra, untimed, first body primes the redemptions.
	for c := -1; c < n; c++ {
		ips, _ := r.clients(true)
		ips = ips[:fresh]
		now := time.Now()
		fw := r.core.gk.Route(workload.PathBulk, "")

		body = append(body[:0], `{"requests":[`...)
		infos := make([]features.RequestInfo, 0, workload.BatchItems)
		reqs := make([]core.RequestContext, 0, fresh)
		for j, ip := range ips {
			body = appendBatchItem(body, j == 0, ip, workload.PathBulk, "")
			infos = append(infos, features.RequestInfo{IP: ip, Path: workload.PathBulk, At: now})
			reqs = append(reqs, core.RequestContext{IP: ip})
		}
		var sols []puzzle.Solution
		var bindings []string
		for j, p := range prevWhole {
			token, err := solve(p.ch, &rec)
			if err != nil {
				return err
			}
			body = appendBatchItem(body, false, p.ip, workload.PathBulk, token)
			infos = append(infos, features.RequestInfo{IP: p.ip, Path: workload.PathBulk, At: now})
			bindings = append(bindings, p.ip)
			sols = append(sols, r.solveAll([]puzzle.Challenge{prevCore[j].Challenge})[0])
		}
		body = append(body, `]}`...)

		req, err := http.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
		if err != nil {
			return err
		}
		w := &bodySink{sink: sink{h: make(http.Header, 2)}}
		var out batchResults
		timed := c >= 0
		root := -1
		serve := func() { handler.ServeHTTP(w, req) }
		if timed {
			root = r.span("httpmw.batch", -1, serve)
		} else {
			serve()
		}
		if err := json.Unmarshal(w.body.Bytes(), &out); err != nil || len(out.Results) != len(infos) {
			return fmt.Errorf("bench: layer run, batch: %d results for %d items (%v)", len(out.Results), len(infos), err)
		}
		prevWhole = prevWhole[:0]
		for j, res := range out.Results {
			switch {
			case j < fresh && res.Status == "challenge":
				var ch aipow.Challenge
				if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil {
					return err
				}
				prevWhole = append(prevWhole, pending{ip: ips[j], ch: ch})
			case j >= fresh && res.Status == "pass":
			default:
				r.failf("batch item %d answered %q", j, res.Status)
			}
		}

		var decs []core.Decision
		batchCalls := func() {
			do := func(name string, fn func()) {
				if timed {
					r.span(name, root, fn)
				} else {
					fn()
				}
			}
			do("core.observe_batch", func() { _ = fw.ObserveBatch(infos) })
			if len(sols) > 0 {
				do("core.verify_batch", func() {
					verdicts, _ := fw.VerifyBatch(sols, bindings, nil)
					for _, v := range verdicts {
						if v != nil {
							r.failf("core batch verify: %v", v)
						}
					}
				})
			}
			do("core.decide_batch", func() { decs, _ = fw.DecideBatch(reqs, nil) })
		}
		batchCalls()
		prevCore = decs
		if timed {
			r.chunk++
		}
	}
	return nil
}

// replayChunks times ReplayCache.Remember at capacity, alone and from
// nproc goroutines at once (the contention every redemption meets).
func (r *layerRun) replayChunks(n int) {
	cache := puzzle.NewReplayCache(1<<16, nil)
	expires := time.Now().Add(pipelineTTL)
	var next uint64
	seed := func(i uint64) (s [puzzle.SeedSize]byte) {
		binary.LittleEndian.PutUint64(s[:], i)
		return s
	}
	for ; next < 1<<16; next++ {
		cache.Remember(seed(next), expires)
	}
	for c := 0; c < n; c, r.chunk = c+1, r.chunk+1 {
		r.span("puzzle.replay_remember", -1, func() {
			for j := 0; j < chunkSize; j, next = j+1, next+1 {
				cache.Remember(seed(next), expires)
			}
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < r.cfg.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < n; c++ {
				base := uint64(1<<32) + uint64(g)<<24 + uint64(c)*chunkSize
				id := r.tr.begin("puzzle.replay_remember_parallel", -1, r.chunk+g*n+c)
				for j := uint64(0); j < chunkSize; j++ {
					cache.Remember(seed(base+j), expires)
				}
				r.tr.end(id)
			}
		}(g)
	}
	wg.Wait()
	r.chunk += r.cfg.nproc * n
}

// solveCost is the solver's time per hash attempt, over enough d=12
// puzzles to average the geometric search length out.
func (r *layerRun) solveCost() float64 {
	var attempts uint64
	var took time.Duration
	for i := 0; i < 32; i++ {
		ch, err := r.lv.issuer.Issue("198.51.100.7", 12)
		if err != nil {
			r.failf("issue d=12: %v", err)
			return 0
		}
		_, stats, err := solver.Solve(context.Background(), ch)
		if err != nil {
			r.failf("solve d=12: %v", err)
			return 0
		}
		attempts += stats.Attempts
		took += stats.Elapsed
	}
	return float64(took.Nanoseconds()) / float64(attempts)
}

// allocs counts heap allocations per op with testing.AllocsPerRun, on the
// whole deployment's middleware and the core deployment's Decide.
func (r *layerRun) allocs(m map[string]float64) {
	const runs = 200
	in := r.d.in
	call := newCaller(r.whole.handler, workload.PathWeb)
	ip := in.IPs[in.Hot[0]]
	var rec recorder

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m["httpmw.allocs_per_challenge"] = testing.AllocsPerRun(runs, func() { call.call(ip, "") })
	runtime.ReadMemStats(&after)
	m["httpmw.bytes_per_challenge"] = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	// AllocsPerRun calls its function runs+1 times; give each call its own
	// solved token.
	tokens := make([]string, runs+1)
	for j := range tokens {
		status, token := call.call(ip, "")
		ch, err := challengeOf(status, token, ip)
		if err == nil {
			tokens[j], err = solve(ch, &rec)
		}
		if err != nil {
			r.failf("allocs: %v", err)
			return
		}
	}
	j := 0
	m["httpmw.allocs_per_redeem"] = testing.AllocsPerRun(runs, func() {
		if status, _ := call.call(ip, tokens[j]); status != http.StatusOK {
			r.failf("allocs: solved token answered %d", status)
		}
		j++
	})
	m["httpmw.allocs_per_reject"] = testing.AllocsPerRun(runs, func() { call.call(ip, tokens[0]) })

	fw := r.core.gk.Route(workload.PathWeb, "")
	m["core.allocs_per_decide"] = testing.AllocsPerRun(runs, func() { _, _ = fw.Decide(core.RequestContext{IP: ip}) })
}

// traceOverhead runs the embedded workload on the whole deployment in
// short stretches, with and without a span per chunk in off-on-on-off
// order so drift in the deployment's state falls on both sides, and
// returns throughput with spans ÷ throughput without.
func (r *layerRun) traceOverhead() float64 {
	stretch := r.cfg.window / 16
	var ops [2]float64
	l := newEmbeddedLoad(r.d, r.cfg, r.whole)
	for _, on := range []int{0, 1, 1, 0, 0, 1, 1, 0} {
		l.spans = nil
		if on == 1 {
			l.spans = r.tr
		}
		rec := runPhase(l, r.cfg.nproc, stretch, nil)
		if rec.failed > 0 {
			r.failf("trace overhead stretch: %d failed ops (%v)", rec.failed, rec.firstErr)
		}
		ops[on] += float64(rec.attempted)
	}
	return ops[1] / ops[0] // equal time on each side
}

// workloadLayerMetrics returns the layer metrics one workload's run
// yields: those read from outside during its window, plus the split of its
// server CPU per op into the in-process handler time of the same op mix
// (from the layer run) and the rest — net/http, the socket, the scheduler.
// The embedded workload has no socket and so, by construction, no residual.
func workloadLayerMetrics(res *workloadResult, layers *layerResult) map[string]float64 {
	out := map[string]float64{"nethttp.residual_us_per_op": 0, "nethttp.share": 0}
	for k, v := range res.PerLayer {
		out[k] = v
	}
	if cpu := res.EndToEnd["server_cpu_us_per_op"]; res.Name != workload.Embedded && cpu > 0 {
		residual := cpu - layers.handlerNS[res.Name]/1e3
		out["nethttp.residual_us_per_op"], out["nethttp.share"] = residual, residual/cpu
	}
	return out
}
