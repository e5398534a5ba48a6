package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
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
	mw, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, okHandler())
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

// BenchmarkBatchHandler measures the batch door on the body the bench's
// batch workload sends: 128 fresh decisions plus 128 redemptions of the
// previous body's challenges, on a framework with a behavior tracker and
// an allocation-free vector scorer.
// Solving and body building run outside the timer; ns/item is the timed
// handler cost per body item, and B/op and allocs/op are per body.
func BenchmarkBatchHandler(b *testing.B) {
	const fresh, items = 128, 256
	tracker, err := features.NewTracker()
	if err != nil {
		b.Fatal(err)
	}
	schema, err := features.NewSchema("threat")
	if err != nil {
		b.Fatal(err)
	}
	fw := newTestFramework(b, 0, core.WithTracker(tracker), core.WithScorer(threatScorer{schema}))
	h, err := NewRoutedBatchHandler(fixedRouter{api: fw, web: fw})
	if err != nil {
		b.Fatal(err)
	}
	type pending struct {
		ip string
		ch puzzle.Challenge
	}
	var (
		prev   []pending
		body   []byte
		next   int
		solver = puzzle.NewSolver()
		w      = &bodySink{sink: *newSink()}
	)
	// build writes the next body: fresh decisions from a rotating client
	// pool, then a solved redemption for each pending challenge.
	build := func() []string {
		ips := make([]string, 0, items)
		body = append(body[:0], `{"requests":[`...)
		for j := 0; j < fresh; j++ {
			ip := "198.51." + strconv.Itoa(next/256%256) + "." + strconv.Itoa(next%256)
			next = (next + 1) % 8192
			ips = append(ips, ip)
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"ip":"`+ip+`","path":"/bulk"}`...)
		}
		for _, p := range prev {
			sol, _, err := solver.Solve(context.Background(), p.ch)
			if err != nil {
				b.Fatal(err)
			}
			token, err := sol.MarshalText()
			if err != nil {
				b.Fatal(err)
			}
			ips = append(ips, p.ip)
			body = append(body, `,{"ip":"`+p.ip+`","path":"/bulk","solution":"`...)
			body = append(append(body, token...), `"}`...)
		}
		body = append(body, `]}`...)
		return ips
	}
	// collect checks the answer and keeps the fresh challenges.
	collect := func(ips []string) {
		var out batchResultBody
		if err := json.Unmarshal(w.body.Bytes(), &out); err != nil || len(out.Results) != len(ips) {
			b.Fatalf("status %d: %d results for %d items (%v)", w.status, len(out.Results), len(ips), err)
		}
		prev = prev[:0]
		for j, res := range out.Results {
			switch {
			case j < fresh && res.Status == BatchChallenge:
				var ch puzzle.Challenge
				if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil {
					b.Fatal(err)
				}
				prev = append(prev, pending{ip: ips[j], ch: ch})
			case j >= fresh && res.Status == BatchPass:
			default:
				b.Fatalf("item %d answered %+v", j, res)
			}
		}
	}
	serve := func() {
		w.reset()
		w.body.Reset()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	}
	// One untimed body primes the redemptions.
	ips := build()
	serve()
	collect(ips)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ips := build()
		req := httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
		w.reset()
		w.body.Reset()
		b.StartTimer()
		h.ServeHTTP(w, req)
		b.StopTimer()
		collect(ips)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
}

// bodySink is a reusable ResponseWriter that keeps the body.
type bodySink struct {
	sink
	body bytes.Buffer
}

func (s *bodySink) Write(p []byte) (int, error) {
	_, _ = s.sink.Write(p)
	return s.body.Write(p)
}
