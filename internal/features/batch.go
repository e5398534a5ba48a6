package features

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// VectorBatchSource is the batch form of VectorSource: one call fills a
// row of attributes per IP, letting the implementation amortize whatever
// per-call setup the single-IP path repeats — schema→layout resolution,
// read locks, and (for the tracker) shard locks, which are grouped so each
// shard's lock is taken once per batch instead of once per IP.
type VectorBatchSource interface {
	VectorSource

	// AttributesVectorBatch writes ips[i]'s attributes into the row
	// dst[i*stride : i*stride+schema.Len()] and ORs the coverage bits it
	// produced into masks[i]. Rows must be zero-initialized and masks
	// carry coverage across stacked sources (a caller starts them at 0);
	// dst must hold len(ips)*stride elements with stride ≥ schema.Len().
	AttributesVectorBatch(dst []float64, stride int, schema *Schema, ips []string, masks []uint64, now time.Time)
}

var (
	_ VectorBatchSource = (*Tracker)(nil)
	_ VectorBatchSource = (*MapStore)(nil)
	_ VectorBatchSource = (*Combined)(nil)
)

// groupScratch is the pooled index scratch batch operations use to group a
// batch's IPs by shard: idx is sorted stably by shard id, so each shard's
// items form one contiguous run (stable ⇒ per-IP arrival order survives,
// since one IP always lands in one shard).
type groupScratch struct {
	idx   []int32
	shard []uint32
}

var groupScratchPool = sync.Pool{New: func() any { return &groupScratch{} }}

// groupByShard fills the scratch with [0, n) sorted stably by the shard id
// of ip(i).
func (t *Tracker) groupByShard(g *groupScratch, n int, ip func(int) string) {
	g.idx = g.idx[:0]
	g.shard = g.shard[:0]
	for i := 0; i < n; i++ {
		g.idx = append(g.idx, int32(i))
		g.shard = append(g.shard, t.shardIdx(ip(i)))
	}
	sh := g.shard
	slices.SortStableFunc(g.idx, func(a, b int32) int {
		return int(sh[a]) - int(sh[b])
	})
}

// ObserveBatch folds a batch of requests into the tracker, taking each
// touched shard's lock once. The per-IP event order is the batch order
// (grouping is stable), so results are identical to calling Observe per
// request; only cross-IP interleaving — which no per-IP state depends on —
// changes. The batch is validated before anything is applied.
func (t *Tracker) ObserveBatch(reqs []RequestInfo) error {
	for i := range reqs {
		if reqs[i].IP == "" {
			return fmt.Errorf("features: batch request %d without IP", i)
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	g := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(g)
	t.groupByShard(g, len(reqs), func(i int) string { return reqs[i].IP })
	t.eachShardRun(g, func(sh *trackerShard, i int32) {
		req := &reqs[i]
		idx := t.entryLocked(sh, req.IP)
		t.observeLocked(sh, idx, req.Path, req.At, req.Failed)
	})
	return nil
}

// RecordVerifyBatch folds a batch of verification outcomes (parallel
// slices; a false ok ignores its difficulty) into the evidence state, one
// shard lock per touched shard. Empty IPs are skipped, matching
// RecordVerify.
func (t *Tracker) RecordVerifyBatch(ips []string, difficulties []int, oks []bool, at time.Time) {
	if len(ips) == 0 {
		return
	}
	g := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(g)
	t.groupByShard(g, len(ips), func(i int) string { return ips[i] })
	t.eachShardRun(g, func(sh *trackerShard, i int32) {
		if ips[i] == "" {
			return
		}
		idx := t.entryLocked(sh, ips[i])
		d := 0
		if oks[i] {
			d = difficulties[i]
		}
		t.recordVerifyLocked(sh, idx, d, oks[i], at)
	})
}

// eachShardRun walks the grouped scratch, holding each shard's lock across
// its contiguous run of items. Empty-IP items (shard 0 by hash) still work:
// fn decides what to do with each index.
func (t *Tracker) eachShardRun(g *groupScratch, fn func(sh *trackerShard, i int32)) {
	for start := 0; start < len(g.idx); {
		shardID := g.shard[g.idx[start]]
		end := start
		for end < len(g.idx) && g.shard[g.idx[end]] == shardID {
			end++
		}
		sh := &t.shards[shardID]
		sh.mu.Lock()
		for k := start; k < end; k++ {
			fn(sh, g.idx[k])
		}
		sh.mu.Unlock()
		start = end
	}
}

// AttributesVectorBatch implements VectorBatchSource: the layout resolves
// once for the whole batch and each touched shard's lock is taken once.
func (t *Tracker) AttributesVectorBatch(dst []float64, stride int, schema *Schema, ips []string, masks []uint64, now time.Time) {
	l := t.layouts.get(schema, behaviorAttrNames[:])
	if l.mask == 0 {
		return
	}
	g := groupScratchPool.Get().(*groupScratch)
	defer groupScratchPool.Put(g)
	t.groupByShard(g, len(ips), func(i int) string { return ips[i] })
	t.eachShardRun(g, func(sh *trackerShard, i int32) {
		masks[i] |= l.mask
		idx, ok := sh.index[ips[i]]
		if !ok {
			return // unknown IP: all-zero behavior, coverage still granted
		}
		s := t.summarizeLocked(sh, idx, now)
		l.scatter(dst[int(i)*stride:], s[:])
	})
}

// AttributesVectorBatch implements VectorBatchSource: one read lock and one
// layout resolution for the whole batch.
func (s *MapStore) AttributesVectorBatch(dst []float64, stride int, schema *Schema, ips []string, masks []uint64, _ time.Time) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.layouts.get(schema, s.names)
	for i, ip := range ips {
		masks[i] |= s.fill(dst[i*stride:i*stride+len(schema.names)], l, int(s.rows[ip]))
	}
}

// AttributesVectorBatch implements VectorBatchSource: static rows first,
// behavioral overlay second, the static side batched when it can be.
func (c *Combined) AttributesVectorBatch(dst []float64, stride int, schema *Schema, ips []string, masks []uint64, now time.Time) {
	if sb, ok := c.static.(VectorBatchSource); ok {
		sb.AttributesVectorBatch(dst, stride, schema, ips, masks, now)
	} else {
		for i, ip := range ips {
			masks[i] |= c.static.AttributesVector(dst[i*stride:i*stride+schema.Len()], schema, ip, now)
		}
	}
	c.tracker.AttributesVectorBatch(dst, stride, schema, ips, masks, now)
}
