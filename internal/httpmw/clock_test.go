package httpmw

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/puzzle"
)

// TestDoorReadsClockOnce drives the middleware and the batch handler
// over a framework whose clock steps 1 µs per read and counts its reads.
// Each door reads the request's instant once — the challenge is issued at
// exactly that instant — and the framework adds only the ends of its
// stage spans: 3 reads per challenge, 2 per redemption (tracker stamp
// included), 3 per batch call at any size.
func TestDoorReadsClockOnce(t *testing.T) {
	start := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC).UnixNano()
	var ns, reads atomic.Int64
	ns.Store(start)
	clock := func() time.Time {
		reads.Add(1)
		return time.Unix(0, ns.Add(int64(time.Microsecond))-int64(time.Microsecond)).UTC()
	}
	tr, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	fw := newTestFramework(t, 3, core.WithClock(clock), core.WithTracker(tr))
	mw, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, okHandler())
	if err != nil {
		t.Fatal(err)
	}
	serve := func(name string, max int64, solution string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/api", nil)
		if solution != "" {
			req.Header.Set(HeaderSolution, solution)
		}
		rec := httptest.NewRecorder()
		before := reads.Load()
		mw.ServeHTTP(rec, req)
		if got := reads.Load() - before; got > max {
			t.Errorf("%s read the clock %d times, want at most %d", name, got, max)
		}
		return rec
	}

	door := time.Unix(0, ns.Load()).UTC()
	rec := serve("challenge", 3, "")
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(rec.Header().Get(HeaderChallenge))); err != nil {
		t.Fatal(err)
	}
	if !ch.IssuedAt.Equal(door) {
		t.Errorf("challenge issued at %v, want the door's instant %v", ch.IssuedAt, door)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	text, err := sol.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve("redemption", 2, string(text)); rec.Code != http.StatusOK {
		t.Fatalf("redemption status %d", rec.Code)
	}

	h, err := NewRoutedBatchHandler(fixedRouter{api: fw, web: fw})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 300} {
		reqs := make([]BatchRequest, n)
		for i := range reqs {
			reqs[i] = BatchRequest{IP: "203.0.113.1", Path: "/b"}
		}
		reqs[0].Solution = string(text) // bound to another client: rejected, then re-challenged
		before := reads.Load()
		if rec, _ := postBatch(t, h, reqs); rec.Code != http.StatusOK {
			t.Fatalf("batch status %d", rec.Code)
		}
		if got := reads.Load() - before; got > 3 {
			t.Errorf("batch of %d read the clock %d times, want at most 3", n, got)
		}
	}
}
