package metrics

import "testing"

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) + 0.5)
	}
}
