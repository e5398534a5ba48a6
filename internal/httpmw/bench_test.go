package httpmw

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
)

// BenchmarkMiddlewareChallenge measures the server-side cost of the full
// challenge path: IP extraction, Decide, encoding, and the 428 response.
// One reused writer keeps allocs/op the middleware's own.
func BenchmarkMiddlewareChallenge(b *testing.B) {
	store, err := features.NewMapStore(map[string]float64{"threat": 6})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.New(
		core.WithKey(testKey),
		core.WithScorer(attrScorer),
		core.WithPolicy(policy.Policy2()),
		core.WithSource(store),
	)
	if err != nil {
		b.Fatal(err)
	}
	mw, err := NewMiddleware(fw, okHandler())
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/api", nil)
	req.RemoteAddr = "192.0.2.10:4242"
	w := newSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		mw.ServeHTTP(w, req)
		if w.status != StatusChallenge {
			b.Fatalf("status = %d", w.status)
		}
	}
}
