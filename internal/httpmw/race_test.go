package httpmw

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
)

// raceScorer maps one tracked attribute so the concurrent path crosses the
// tracker on every decision.
var raceScorer, _ = features.NewMapScorer(func(attrs map[string]float64) (float64, error) {
	return min(attrs[features.AttrRequestRate], 5), nil
}, features.AttrRequestRate)

// TestMiddlewareTransportConcurrentClients drives the full HTTP protocol —
// challenge, client-side solve via the Transport, redemption, behavior
// tracking — from many concurrent clients with distinct IPs. It exists to
// run under -race: the middleware, framework, tracker, and replay cache
// all see genuine cross-goroutine contention here, end to end.
func TestMiddlewareTransportConcurrentClients(t *testing.T) {
	key := []byte("race-test-hmac-key-32-bytes-long")
	tracker, err := features.NewTracker(features.WithCapacity(4096))
	if err != nil {
		t.Fatal(err)
	}
	store, err := features.NewMapStore(map[string]float64{"static": 1})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := features.NewCombined(store, tracker)
	if err != nil {
		t.Fatal(err)
	}
	// Low difficulties keep real solving cheap; the crypto is identical.
	pol, err := policy.NewClamp(policy.Policy1(), 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(
		core.WithKey(key),
		core.WithScorer(raceScorer),
		core.WithPolicy(pol),
		core.WithSource(combined),
		core.WithTracker(tracker),
	)
	if err != nil {
		t.Fatal(err)
	}

	var served atomic.Uint64
	mw, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, "ok")
	}), WithTrustedIPHeader("X-Race-IP"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	defer srv.Close()

	const (
		clients  = 16
		requests = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client gets its own Transport (solver, token cache) and
			// identity; the server side is the shared contended state.
			client := &http.Client{
				Transport: &headerRoundTripper{
					header: "X-Race-IP",
					value:  fmt.Sprintf("198.51.100.%d", c+1),
					next:   NewTransport(),
				},
				Timeout: 30 * time.Second,
			}
			for i := 0; i < requests; i++ {
				resp, err := client.Get(srv.URL + fmt.Sprintf("/path/%d", i%3))
				if err != nil {
					errs <- fmt.Errorf("client %d request %d: %w", c, i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := served.Load(); got != clients*requests {
		t.Errorf("served %d requests, want %d", got, clients*requests)
	}
	if tracked := tracker.StatsSnapshot().Entries; tracked != clients {
		t.Errorf("tracker holds %d IPs, want %d", tracked, clients)
	}
}

// headerRoundTripper stamps the client identity header under the PoW
// transport, so the solve-retry carries it too.
type headerRoundTripper struct {
	header, value string
	next          http.RoundTripper
}

func (h *headerRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	req.Header.Set(h.header, h.value)
	return h.next.RoundTrip(req)
}
