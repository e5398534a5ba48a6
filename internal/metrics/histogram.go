package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a log-bucketed histogram for positive values (typically
// latencies in milliseconds). Buckets grow geometrically from Start by
// Factor, so wide dynamic ranges (microseconds to seconds) fit in a few
// dozen buckets with bounded relative error.
//
// Histogram is safe for concurrent use and Observe never allocates: the
// bucket counters are atomic and the float sum is CAS-updated, so serving
// paths share one histogram without locks. Reads are not a point-in-time
// cut — counters are loaded one by one — so a read taken during Observe
// may miss in-flight observations; for a monitoring export that is the
// accepted contract (Prometheus scrapes have the same property). A
// single-goroutine collector (the simulation's worker-private outcome
// histograms, merged in a fixed order) still sums its floats in a
// deterministic order.
//
// Use NewHistogram to construct one; the zero value is not usable.
type Histogram struct {
	start   float64
	factor  float64
	invLog  float64         // 1/ln(factor), precomputed off the hot path
	bounds  []float64       // bounds[i] is bucket i's inclusive lower bound
	counts  []atomic.Uint64 // the last bucket catches overflow
	under   atomic.Uint64   // observations below start
	total   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram returns a histogram whose first bucket covers [start,
// start*factor) and which has n geometric buckets; values >= the last bound
// land in the final overflow bucket. It panics if the shape parameters are
// degenerate, since that is a programming error, not an input error.
func NewHistogram(start, factor float64, n int) *Histogram {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid histogram shape start=%v factor=%v n=%d", start, factor, n))
	}
	bounds := make([]float64, n+1)
	for i := range bounds {
		bounds[i] = start * math.Pow(factor, float64(i))
	}
	return &Histogram{
		start:  start,
		factor: factor,
		invLog: 1 / math.Log(factor),
		bounds: bounds,
		counts: make([]atomic.Uint64, n+1),
	}
}

// NewLatencyHistogram returns a histogram tuned for request latencies in
// milliseconds: 0.1 ms to ~100 s with ~26% relative bucket error.
func NewLatencyHistogram() *Histogram { return NewHistogram(0.1, 1.26, 60) }

// Observe records one value. Non-positive and NaN values are counted in the
// underflow bucket so totals still reconcile. The total is bumped before
// any bucket, so a concurrent read never sees buckets sum past the count.
func (h *Histogram) Observe(v float64) {
	h.total.Add(1)
	if !math.IsNaN(v) {
		h.addSum(v)
	}
	if math.IsNaN(v) || v < h.start {
		h.under.Add(1)
		return
	}
	h.counts[h.bucket(v)].Add(1)
}

// bucket reports the index of the bucket whose bounds hold v ≥ start.
func (h *Histogram) bucket(v float64) int {
	last := len(h.bounds) - 1
	if v >= h.bounds[last] {
		return last // overflow, +Inf included
	}
	// The logarithm estimates the index to within a few ulps, so a value
	// at or next to a bound (an exact power of the factor, or the largest
	// float below one) may land one bucket off; the bound table is exact
	// and moves it back.
	i := min(int(math.Floor(math.Log(v/h.start)*h.invLog)), last-1)
	if v < h.bounds[i] {
		i--
	} else if v >= h.bounds[i+1] {
		i++
	}
	return i
}

// addSum adds v to the float sum with a CAS loop: under contention it
// retries but never blocks.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count reports the total number of observations, including underflow.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Quantile estimates the q-th quantile (0 < q < 1) from bucket midpoints.
// The estimate carries the bucket's relative error. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 { return h.read().quantile(q) }

// Merge folds other's observations into h. Both histograms must share the
// same bucket layout (start, factor, bucket count); Merge panics otherwise,
// since mixing layouts silently would corrupt every later quantile.
//
// Merging is how concurrent collectors stay deterministic: each worker
// records into a private histogram and the owner merges them in a fixed
// order, so the float sum accumulates in the same order on every run.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if h.start != other.start || h.factor != other.factor || len(h.counts) != len(other.counts) {
		panic(fmt.Sprintf("metrics: merging mismatched histogram layouts (%v/%v/%d vs %v/%v/%d)",
			h.start, h.factor, len(h.counts), other.start, other.factor, len(other.counts)))
	}
	o := other.read()
	h.total.Add(o.total)
	h.addSum(o.sum)
	h.under.Add(o.under)
	for i, c := range o.counts {
		h.counts[i].Add(c)
	}
}

// histState is one read of a histogram's counters, from which the
// quantiles, the snapshot and the exposition series all derive.
type histState struct {
	start, factor float64
	bounds        []float64 // shared with the histogram, read-only
	under, total  uint64
	sum           float64
	counts        []uint64
}

// read loads the counters. Buckets are read before the total — and
// Observe bumps the total first — so the read buckets never sum past the
// read count, even mid-write: exported cumulative series stay internally
// consistent under concurrent observation.
func (h *Histogram) read() histState {
	s := histState{start: h.start, factor: h.factor, bounds: h.bounds, counts: make([]uint64, len(h.counts))}
	s.under = h.under.Load()
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	s.sum = math.Float64frombits(h.sumBits.Load())
	s.total = h.total.Load()
	return s
}

func (s histState) quantile(q float64) float64 {
	if s.total == 0 || q <= 0 || q >= 1 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(s.total)))
	if s.under >= target {
		return s.start / 2
	}
	cum := s.under
	for i, c := range s.counts {
		cum += c
		if cum >= target {
			return s.bounds[i] * math.Sqrt(s.factor) // geometric bucket midpoint
		}
	}
	// Reached only when a concurrent read saw the total ahead of its buckets.
	return s.start * math.Pow(s.factor, float64(len(s.counts)))
}

// HistogramBucket is one non-empty bucket of a snapshot: the bucket's lower
// bound and its observation count.
type HistogramBucket struct {
	// Lo is the bucket's inclusive lower bound (the underflow bucket
	// reports 0).
	Lo float64 `json:"lo"`

	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// HistogramSnapshot is an immutable, JSON-marshalable export of a
// histogram's state: shape, sparse non-empty buckets, and the derived
// summary statistics reports care about. Marshaling a snapshot of the same
// observations always yields identical bytes, which is what lets simulation
// reports be compared with cmp/diff across runs.
type HistogramSnapshot struct {
	// Start and Factor echo the bucket layout, so a snapshot is
	// self-describing.
	Start  float64 `json:"start"`
	Factor float64 `json:"factor"`

	// Count is the total number of observations, Sum their total value.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`

	// Mean, P50, P90 and P99 are the derived statistics (0 when empty).
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`

	// Buckets lists the non-empty buckets in ascending bound order; the
	// underflow bucket, when non-empty, leads with Lo 0.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot exports the histogram's current state. Quantile estimates carry
// the bucket relative error, like Quantile. NaN-free: an empty histogram
// snapshots with zero statistics so the result always marshals to JSON.
func (h *Histogram) Snapshot() HistogramSnapshot {
	st := h.read()
	s := HistogramSnapshot{Start: st.start, Factor: st.factor, Count: st.total, Sum: st.sum}
	if st.under > 0 {
		s.Buckets = append(s.Buckets, HistogramBucket{Lo: 0, Count: st.under})
	}
	for i, c := range st.counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Lo: st.bounds[i], Count: c})
		}
	}
	if st.total == 0 {
		return s
	}
	s.Mean = st.sum / float64(st.total)
	s.P50 = st.quantile(0.50)
	s.P90 = st.quantile(0.90)
	s.P99 = st.quantile(0.99)
	return s
}
