package reputation

import (
	"testing"
)

func BenchmarkTrain(b *testing.B) {
	samples := toySamples(500, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelScore(b *testing.B) {
	m, err := Train(toySamples(500, 1))
	if err != nil {
		b.Fatal(err)
	}
	probe := map[string]float64{"x": 4.2, "y": 7.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(probe); err != nil {
			b.Fatal(err)
		}
	}
}
