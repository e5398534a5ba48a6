package core

import (
	"fmt"
	"sync"
	"time"

	"aipow/internal/features"
	"aipow/internal/puzzle"
)

// Batch front door. Proxies and ingestion pipelines that already hold many
// requests (an accept loop draining a socket, a load balancer shard, the
// simulation engine's per-tick event runs) decide them through DecideBatch
// instead of a Decide loop. The per-decision pipeline is identical — the
// same decideRow kernel, same issuance — but the fixed costs
// are paid once per batch instead of once per request: one snapshot load,
// one clock read, one scratch checkout, one vector-layout resolution, and
// (through features.VectorBatchSource and puzzle.IssueBatch) shard-grouped
// tracker reads and chunked entropy reads.
//
// Batches are chunked at maxDecideChunk internally, so arbitrarily large
// batches neither inflate the pooled scratch nor hold a tracker shard's
// data pinned in cache past a bounded run.

// maxDecideChunk bounds the scratch footprint of one DecideBatch chunk
// (~26 KiB of float64 rows at the 9-attribute schema plus the challenge
// slice), large enough to amortize fixed costs thoroughly.
const maxDecideChunk = 256

// decideScratch is the pooled per-chunk state of DecideBatch.
type decideScratch struct {
	vec   []float64
	masks []uint64
	ips   []string
	diffs []int
	chs   []puzzle.Challenge
}

var decidePool = sync.Pool{New: func() any { return new(decideScratch) }}

// verifyScratch is the pooled per-call state of VerifyBatch's grouped
// evidence write.
type verifyScratch struct {
	ips   []string
	diffs []int
	oks   []bool
}

var verifyPool = sync.Pool{New: func() any { return new(verifyScratch) }}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// DecideBatch runs Decide for every request in reqs on one configuration
// snapshot loaded at entry (a concurrent Swap is observed by the whole
// batch or not at all) and returns the decisions in request order. When
// dst has capacity for the results it is reused; otherwise a fresh slice
// is allocated. Per-decision semantics — scoring, fail-closed
// substitution, bypass, confidence-shaped difficulty — match
// Decide exactly; an issuance failure (or an empty IP anywhere in the
// batch) fails the whole batch with no challenges returned.
func (f *Framework) DecideBatch(reqs []RequestContext, dst []Decision) ([]Decision, error) {
	for i := range reqs {
		if reqs[i].IP == "" {
			return nil, fmt.Errorf("core: batch request %d without client IP", i)
		}
	}
	dst = grow(dst, len(reqs))
	if len(reqs) == 0 {
		return dst, nil
	}
	t0 := time.Now()
	snap := f.snap.Load()
	now := f.hotNow()
	sc := decidePool.Get().(*decideScratch)
	for start := 0; start < len(reqs); start += maxDecideChunk {
		end := min(start+maxDecideChunk, len(reqs))
		if err := f.decideChunk(snap, now, reqs[start:end], dst[start:end], sc); err != nil {
			decidePool.Put(sc)
			return nil, err
		}
	}
	decidePool.Put(sc)
	t1 := time.Now()
	f.lat[latStageBatch].ObserveDuration(t1.Sub(t0))
	if snap.trace != nil {
		// Per-item sampling draws, so batch-decided traffic is sampled at
		// the same 1-in-N rate as the request-at-a-time path. Stage
		// timings are batch-amortized and not attributable per item, so
		// only the decision fields are recorded.
		for i := range dst {
			if snap.trace.Sampled() {
				f.traceDecide(snap, &dst[i], t1, t1, t1)
			}
		}
	}
	return dst, nil
}

// decideChunk decides one chunk: a whole-chunk vector fill, the decideRow
// kernel per row, then one IssueBatch over the non-bypassed slots.
func (f *Framework) decideChunk(snap *snapshot, now time.Time, reqs []RequestContext, dst []Decision, sc *decideScratch) error {
	n := len(reqs)
	sc.ips = grow(sc.ips, n)
	for i := range reqs {
		sc.ips[i] = reqs[i].IP
	}

	// One shard-grouped tracker pass instead of n independent lookups when
	// the source can batch; the same rows filled one by one when it cannot.
	stride := snap.schema.Len()
	sc.vec = grow(sc.vec, n*stride)
	clear(sc.vec)
	sc.masks = grow(sc.masks, n)
	clear(sc.masks)
	if snap.batch != nil {
		snap.batch.AttributesVectorBatch(sc.vec, stride, snap.schema, sc.ips, sc.masks, now)
	} else {
		for i, ip := range sc.ips {
			sc.masks[i] = snap.source.AttributesVector(sc.vec[i*stride:(i+1)*stride], snap.schema, ip, now)
		}
	}

	sc.diffs = grow(sc.diffs, n)
	var nIssued uint64
	for i := range reqs {
		dec := &dst[i]
		*dec = Decision{IP: reqs[i].IP}
		f.decideRow(snap, dec, sc.vec[i*stride:(i+1)*stride], sc.masks[i])
		if dec.Bypassed {
			sc.diffs[i] = -1 // IssueBatch's "no challenge" sentinel
			continue
		}
		sc.diffs[i] = dec.Difficulty
		nIssued++
	}

	if nIssued > 0 {
		sc.chs = grow(sc.chs, n)
		if err := f.issuer.IssueBatch(sc.ips, sc.diffs, sc.chs); err != nil {
			return fmt.Errorf("core: issue challenge batch: %w", err)
		}
		for i := range dst {
			if sc.diffs[i] >= 0 {
				dst[i].Challenge = sc.chs[i]
				f.diffIssued[sc.diffs[i]].Add(1)
			}
		}
		f.stats[statIssued].Add(nIssued)
	}
	return nil
}

// ObserveBatch feeds a batch of requests into the attached behavior
// tracker (a no-op without one), grouping the writes by tracker shard so
// each shard's lock is taken once per batch instead of once per request.
// With the evidence buffer enabled the events are appended to the
// write-back buffers instead, like Observe. Any empty IP rejects the whole
// batch before any event is recorded.
func (f *Framework) ObserveBatch(reqs []features.RequestInfo) error {
	if f.tracker == nil {
		return nil
	}
	if f.buffered() {
		for i := range reqs {
			if reqs[i].IP == "" {
				return fmt.Errorf("features: batch request %d without IP", i)
			}
		}
		for i := range reqs {
			if err := f.tracker.ObserveBuffered(reqs[i], f.wbSize); err != nil {
				return err
			}
		}
		return nil
	}
	return f.tracker.ObserveBatch(reqs)
}

// VerifyBatch verifies sols[i] as presented by bindings[i], returning one
// verdict per solution in order (nil = serve the resource). Each solution
// goes through the same verifyOne as Verify, against one clock reading;
// only the evidence write differs: folded into the tracker with one lock
// acquisition per touched shard, or appended to the write-back buffers
// when those are on. When dst has capacity for the verdicts it is reused.
// The error return reports only batch-shape problems; per-solution
// failures live in the verdict slice.
func (f *Framework) VerifyBatch(sols []puzzle.Solution, bindings []string, dst []error) ([]error, error) {
	if len(sols) != len(bindings) {
		return nil, fmt.Errorf("core: batch shape mismatch: %d solutions, %d bindings",
			len(sols), len(bindings))
	}
	dst = grow(dst, len(sols))
	if len(sols) == 0 {
		return dst, nil
	}
	t0 := time.Now()
	now := f.hotNow()
	grouped := f.tracker != nil && !f.buffered()
	var sc *verifyScratch
	if grouped {
		sc = verifyPool.Get().(*verifyScratch)
		sc.ips = grow(sc.ips, len(sols))
		sc.diffs = grow(sc.diffs, len(sols))
		sc.oks = grow(sc.oks, len(sols))
	}
	for i := range sols {
		d, err := f.verifyOne(&sols[i], bindings[i], now)
		dst[i] = err
		if grouped {
			// RecordVerifyBatch skips empty IPs, so empty bindings need no
			// special case — but every slot must be written, the scratch is
			// pooled and may hold a previous batch's entries.
			sc.ips[i], sc.diffs[i], sc.oks[i] = bindings[i], d, err == nil
		} else {
			f.recordVerify(bindings[i], d, err == nil, now)
		}
	}
	if grouped {
		f.tracker.RecordVerifyBatch(sc.ips, sc.diffs, sc.oks, now)
		verifyPool.Put(sc)
	}
	f.lat[latStageBatch].ObserveDuration(time.Since(t0))
	if t := f.snap.Load().trace; t != nil {
		// Per-item sampling draws at the request-at-a-time rate; like
		// DecideBatch, the batch-amortized time is not attributed per item.
		for i := range sols {
			if t.Sampled() {
				f.traceVerify(t, now, &sols[i], bindings[i], dst[i], 0)
			}
		}
	}
	return dst, nil
}
