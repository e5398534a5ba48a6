package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestNewHistogramPanicsOnBadShape(t *testing.T) {
	tests := []struct {
		name          string
		start, factor float64
		n             int
	}{
		{"zero_start", 0, 2, 4},
		{"negative_start", -1, 2, 4},
		{"factor_one", 1, 1, 4},
		{"no_buckets", 1, 2, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewHistogram(tt.start, tt.factor, tt.n)
		})
	}
}

func TestHistogramCountAndMean(t *testing.T) {
	h := NewHistogram(1, 2, 10)
	for _, v := range []float64{1, 2, 4, 8} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("Count() = %d, want 4", got)
	}
	if got := h.Snapshot().Mean; got != 3.75 {
		t.Fatalf("Mean = %v, want 3.75", got)
	}
}

// TestHistogramUnderflowAndOverflow also checks that the exposition of
// underflow, NaN and overflow observations stays a valid histogram.
func TestHistogramUnderflowAndOverflow(t *testing.T) {
	h := NewHistogram(1, 2, 3) // buckets: [1,2) [2,4) [4,8) [8,inf)
	h.Observe(0.5)             // underflow
	h.Observe(-5)              // underflow
	h.Observe(math.NaN())      // underflow, excluded from sum
	h.Observe(100)             // overflow bucket
	h.Observe(math.Inf(1))     // overflow bucket
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got := h.under.Load(); got != 3 {
		t.Fatalf("underflow = %d, want 3", got)
	}
	if got := h.counts[3].Load(); got != 2 {
		t.Fatalf("overflow = %d, want 2", got)
	}
	e := NewExposition()
	h.ExpositionInto(e, "h", "h")
	out := expositionString(t, e)
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Errorf("underflow/NaN/overflow exposition invalid: %v\n%s", err, out)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewPCG(7, 9))
	exact := make([]float64, 20000)
	for i := range exact {
		v := math.Exp(rng.NormFloat64()*1.0 + 3.0) // lognormal latencies ~20ms
		h.Observe(v)
		exact[i] = v
	}
	slices.Sort(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := exact[int(q*float64(len(exact)-1))]
		if rel := math.Abs(got-want) / want; rel > 0.30 {
			t.Errorf("Quantile(%v) = %v, exact %v, rel err %.2f > 0.30", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("Quantile on empty = %v, want NaN", got)
	}
	h.Observe(0.1) // all mass in underflow
	if got := h.Quantile(0.5); got != 0.5 {
		t.Errorf("underflow quantile = %v, want start/2 = 0.5", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.Snapshot().Mean; math.Abs(got-50) > 1e-9 {
		t.Fatalf("Mean after ObserveDuration = %v, want 50", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram(1, 2, 6)
	a := NewHistogram(1, 2, 6)
	b := NewHistogram(1, 2, 6)
	values := []float64{0.5, 1, 3, 3, 9, 40, 200}
	for i, v := range values {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if got, want := a.Snapshot(), whole.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot = %+v, want %+v", got, want)
	}
	a.Merge(nil) // no-op
	if a.Count() != whole.Count() {
		t.Fatal("Merge(nil) changed state")
	}
}

func TestHistogramMergePanicsOnLayoutMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched layouts")
		}
	}()
	NewHistogram(1, 2, 6).Merge(NewHistogram(1, 2, 7))
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	empty := h.Snapshot()
	if empty.Count != 0 || len(empty.Buckets) != 0 || empty.Mean != 0 || empty.P99 != 0 {
		t.Fatalf("empty snapshot not zeroed: %+v", empty)
	}

	h.Observe(0.5) // underflow
	h.Observe(3)
	h.Observe(3)
	h.Observe(100) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("snapshot count = %d, want 4", s.Count)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("snapshot buckets = %+v, want 3 entries", s.Buckets)
	}
	if s.Buckets[0].Lo != 0 || s.Buckets[0].Count != 1 {
		t.Fatalf("underflow bucket = %+v", s.Buckets[0])
	}
	if s.Buckets[1].Lo != 2 || s.Buckets[1].Count != 2 {
		t.Fatalf("value bucket = %+v", s.Buckets[1])
	}
	if s.Mean != 106.5/4 || s.P50 != h.Quantile(0.5) || s.P99 != h.Quantile(0.99) {
		t.Fatal("snapshot statistics disagree with histogram accessors")
	}
}

// TestHistogramPowerOfTwoBoundaries pins the bucket edges of the sim's
// work layout: 2^k opens bucket k and the float just below it stays in
// bucket k-1. The reference index comes from math.Frexp, which is exact.
func TestHistogramPowerOfTwoBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 40)
	for k := 0; k < 40; k++ {
		for _, v := range []float64{math.Ldexp(1, k), math.Nextafter(math.Ldexp(1, k), 0)} {
			_, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
			want := exp - 1
			got := -1 // underflow
			if v >= h.start {
				got = h.bucket(v)
			}
			if got != want {
				t.Errorf("k=%d: %v landed in bucket %d, want %d", k, v, got, want)
			}
		}
	}
}

// refHistogram is the reference model for Histogram: it keeps the
// samples and files each into a bucket by comparing it with every bound.
type refHistogram struct {
	start, factor float64
	n             int
	samples       []float64
}

func (r *refHistogram) bound(i int) float64 { return r.start * math.Pow(r.factor, float64(i)) }

// buckets returns the underflow count and the per-bucket counts.
func (r *refHistogram) buckets() (under uint64, counts []uint64) {
	counts = make([]uint64, r.n+1)
	for _, v := range r.samples {
		if math.IsNaN(v) || v < r.bound(0) {
			under++
			continue
		}
		i := 0
		for i < r.n && v >= r.bound(i+1) {
			i++
		}
		counts[i]++
	}
	return under, counts
}

func (r *refHistogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Start: r.start, Factor: r.factor, Count: uint64(len(r.samples))}
	for _, v := range r.samples {
		if !math.IsNaN(v) {
			s.Sum += v
		}
	}
	under, counts := r.buckets()
	if under > 0 {
		s.Buckets = append(s.Buckets, HistogramBucket{Lo: 0, Count: under})
	}
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Lo: r.bound(i), Count: c})
		}
	}
	quantile := func(q float64) float64 {
		target := uint64(math.Ceil(q * float64(s.Count)))
		if under >= target {
			return r.start / 2
		}
		cum := under
		for i, c := range counts {
			if cum += c; cum >= target {
				return r.bound(i) * math.Sqrt(r.factor)
			}
		}
		panic("unreachable")
	}
	if s.Count > 0 {
		s.P50, s.P99 = quantile(0.50), quantile(0.99)
	}
	return s
}

// TestHistogramMatchesReference holds Snapshot to the reference model
// bucket for bucket, on spread-out values and on every bound of each
// layout in use (and its float neighbours).
func TestHistogramMatchesReference(t *testing.T) {
	layouts := []refHistogram{
		{start: 0.1, factor: 1.26, n: 60},   // NewLatencyHistogram, the sim's latency
		{start: 1, factor: 2, n: 40},        // the sim's work hashes
		{start: 0.0005, factor: 1.5, n: 40}, // core's serving-path latency
	}
	spread := []float64{0.01, 0.1, 0.5, 1, 2, 5, 10, 100, 1000, 1e6, 0, -1, math.NaN()}
	for _, ref := range layouts {
		t.Run(fmt.Sprintf("%v/%v/%d", ref.start, ref.factor, ref.n), func(t *testing.T) {
			ref.samples = append([]float64(nil), spread...)
			for i := 0; i <= ref.n; i++ {
				b := ref.bound(i)
				ref.samples = append(ref.samples, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
			}
			h := NewHistogram(ref.start, ref.factor, ref.n)
			for _, v := range ref.samples {
				h.Observe(v)
			}
			got, want := h.Snapshot(), ref.snapshot()
			if got.Count != want.Count || got.P50 != want.P50 || got.P99 != want.P99 ||
				math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
				t.Errorf("snapshot count/sum/p50/p99 = %d/%v/%v/%v, reference %d/%v/%v/%v",
					got.Count, got.Sum, got.P50, got.P99, want.Count, want.Sum, want.P50, want.P99)
			}
			if !reflect.DeepEqual(got.Buckets, want.Buckets) {
				t.Errorf("buckets differ from the reference:\n got %v\nwant %v", got.Buckets, want.Buckets)
			}
		})
	}
}

// TestHistogramConcurrent pins the Observe/read contract under -race:
// concurrent observers against a snapshotting reader, with exact count
// and sum reconciliation afterwards.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0.0005, 1.5, 40)
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() { // reader: snapshots must stay internally consistent
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			s := h.Snapshot()
			var n uint64
			for _, b := range s.Buckets {
				n += b.Count
			}
			// read loads buckets before the total, and Observe bumps the
			// total first, so this holds even mid-write.
			if n > s.Count {
				readerDone <- fmt.Errorf("bucket total %d exceeds count %d", n, s.Count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(float64(i%100) * 0.01)
				h.ObserveDuration(time.Duration(i%50) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Error(err)
	}
	const total = writers * perW * 2
	if h.Count() != total {
		t.Errorf("Count = %d, want %d", h.Count(), total)
	}
	var wantSum float64
	for i := 0; i < perW; i++ {
		wantSum += float64(i%100) * 0.01
		wantSum += float64(time.Duration(i%50)*time.Microsecond) / float64(time.Millisecond)
	}
	wantSum *= writers
	if got := h.Snapshot().Sum; math.Abs(got-wantSum) > 1e-6*wantSum+1e-9 {
		t.Errorf("Sum = %g, want %g", got, wantSum)
	}
}
