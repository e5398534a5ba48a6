package metrics

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
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
	if got := h.Mean(); got != 3.75 {
		t.Fatalf("Mean() = %v, want 3.75", got)
	}
}

func TestHistogramUnderflowAndOverflow(t *testing.T) {
	h := NewHistogram(1, 2, 3) // buckets: [1,2) [2,4) [4,8) [8,inf)
	h.Observe(0.5)             // underflow
	h.Observe(math.NaN())      // underflow, excluded from sum
	h.Observe(100)             // overflow bucket
	if got := h.Count(); got != 3 {
		t.Fatalf("Count() = %d, want 3", got)
	}
	if got := h.under; got != 2 {
		t.Fatalf("underflow = %d, want 2", got)
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
	if got := h.Mean(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Mean after ObserveDuration = %v, want 50", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	if got := h.Render(20); got != "(empty histogram)\n" {
		t.Fatalf("empty render = %q", got)
	}
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(3)
	out := h.Render(20)
	if !strings.Contains(out, "<1") || !strings.Contains(out, ">=2") {
		t.Fatalf("render missing buckets:\n%s", out)
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
	if a.Count() != whole.Count() || a.under != whole.under || a.sum != whole.sum {
		t.Fatalf("merged totals = (%d,%d,%v), want (%d,%d,%v)",
			a.Count(), a.under, a.sum, whole.Count(), whole.under, whole.sum)
	}
	for i := range whole.counts {
		if a.counts[i] != whole.counts[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, a.counts[i], whole.counts[i])
		}
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
	if s.Mean != h.Mean() || s.P50 != h.Quantile(0.5) || s.P99 != h.Quantile(0.99) {
		t.Fatal("snapshot statistics disagree with histogram accessors")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Observe(3)
	h.Reset()
	if h.Count() != 0 || !math.IsNaN(h.Mean()) {
		t.Fatal("Reset did not clear state")
	}
}
