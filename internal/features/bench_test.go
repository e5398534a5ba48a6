package features

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func BenchmarkTrackerObserve(b *testing.B) {
	tr, err := NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Observe(RequestInfo{
			IP:   fmt.Sprintf("10.0.%d.%d", i%256, (i/256)%256),
			Path: "/api",
			At:   start.Add(time.Duration(i) * time.Millisecond),
		})
	}
}

// BenchmarkTrackerObserveParallel hammers Observe from all Ps with
// per-goroutine IP ranges; with lock striping the shards absorb the
// contention that a single mutex would serialize.
func BenchmarkTrackerObserveParallel(b *testing.B) {
	tr, err := NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Unix(0, 0)
	var worker int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&worker, 1)
		i := 0
		for pb.Next() {
			i++
			_ = tr.Observe(RequestInfo{
				IP:   fmt.Sprintf("10.%d.%d.%d", w, i%256, (i/256)%256),
				Path: "/api",
				At:   start.Add(time.Duration(i) * time.Millisecond),
			})
		}
	})
}

// BenchmarkTrackerAttributesParallel reads summaries from all Ps across a
// spread of IPs.
func BenchmarkTrackerAttributesParallel(b *testing.B) {
	tr, err := NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Unix(0, 0)
	ips := make([]string, 64)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.0.%d", i)
		for j := 0; j < 16; j++ {
			_ = tr.Observe(RequestInfo{IP: ips[i], Path: "/api",
				At: start.Add(time.Duration(j) * time.Millisecond)})
		}
	}
	schema, err := NewSchema(behaviorAttrNames[:]...)
	if err != nil {
		b.Fatal(err)
	}
	at := start.Add(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := schema.NewVector()
		i := 0
		for pb.Next() {
			_ = tr.AttributesVector(dst, schema, ips[i%len(ips)], at)
			i++
		}
	})
}

// BenchmarkTrackerAttributesVector measures one summary fill.
func BenchmarkTrackerAttributesVector(b *testing.B) {
	tr, err := NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	start := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		_ = tr.Observe(RequestInfo{IP: "10.0.0.1", Path: fmt.Sprintf("/p%d", i%8),
			At: start.Add(time.Duration(i) * time.Millisecond)})
	}
	schema, err := NewSchema(behaviorAttrNames[:]...)
	if err != nil {
		b.Fatal(err)
	}
	dst := schema.NewVector()
	at := start.Add(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.AttributesVector(dst, schema, "10.0.0.1", at)
	}
}

// BenchmarkMapStoreVectorLookup fills one row from a store of the feed's
// shape, 20 000 rows of 10 attributes: "identity" through the sorted
// names (the reputation model's schema), "reordered" through the same
// names reversed, which takes the per-slot path.
func BenchmarkMapStoreVectorLookup(b *testing.B) {
	const rows, width = 20_000, 10
	names := make([]string, width)
	attrs := make(map[string]float64, width)
	for j := range names {
		names[j] = fmt.Sprintf("attr_%d", j)
		attrs[names[j]] = float64(j)
	}
	s, err := NewMapStore(attrs)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		attrs[names[i%width]] = float64(i)
		s.Put(fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&0xff, i&0xff), attrs)
	}
	reversed := make([]string, width)
	for j, name := range names {
		reversed[width-1-j] = name
	}
	for _, bc := range []struct {
		name  string
		names []string
	}{{"identity", names}, {"reordered", reversed}} {
		b.Run(bc.name, func(b *testing.B) {
			schema, err := NewSchema(bc.names...)
			if err != nil {
				b.Fatal(err)
			}
			dst := schema.NewVector()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.AttributesVector(dst, schema, "10.0.7.9", time.Time{})
			}
		})
	}
}

func BenchmarkMapStoreLookup(b *testing.B) {
	s, err := NewMapStore(map[string]float64{"x": 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Put(fmt.Sprintf("10.0.%d.%d", i%256, i/256), map[string]float64{"x": float64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Attributes("10.0.7.9", time.Time{})
	}
}
