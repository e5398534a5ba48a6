package httpmw

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

var testKey = []byte("0123456789abcdef0123456789abcdef")

// attrScorer reads the score straight from a "threat" attribute.
var attrScorer, _ = features.NewMapScorer(func(attrs map[string]float64) (float64, error) {
	return attrs["threat"], nil
}, "threat")

// newTestFramework builds a framework whose fallback threat is the given
// score (httptest clients come from 127.0.0.1, which stays unknown).
func newTestFramework(t *testing.T, fallbackThreat float64, opts ...core.Option) *core.Framework {
	t.Helper()
	store, err := features.NewMapStore(map[string]float64{"threat": fallbackThreat})
	if err != nil {
		t.Fatal(err)
	}
	base := []core.Option{
		core.WithKey(testKey),
		core.WithScorer(attrScorer),
		core.WithPolicy(policy.Policy1()),
		core.WithSource(store),
	}
	fw, err := core.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// okHandler serves a recognizable payload.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "the protected resource")
	})
}

func newProtectedServer(t *testing.T, fw *core.Framework, opts ...MiddlewareOption) *httptest.Server {
	t.Helper()
	mw, err := NewMiddleware(fw, okHandler(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	t.Cleanup(srv.Close)
	return srv
}

func TestNewMiddlewareValidation(t *testing.T) {
	fw := newTestFramework(t, 0)
	if _, err := NewMiddleware(nil, okHandler()); err == nil {
		t.Error("nil framework accepted")
	}
	if _, err := NewMiddleware(fw, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestBareRequestGetsChallenge(t *testing.T) {
	srv := newProtectedServer(t, newTestFramework(t, 3))
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != StatusChallenge {
		t.Fatalf("status = %d, want %d", resp.StatusCode, StatusChallenge)
	}
	token := resp.Header.Get(HeaderChallenge)
	if token == "" {
		t.Fatal("no challenge header")
	}
	if got := resp.Header.Get(HeaderDifficulty); got != "4" { // policy1(3) = 4
		t.Fatalf("difficulty header = %q, want 4", got)
	}
	var body challengeBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Challenge != token || body.Difficulty != 4 {
		t.Fatalf("body = %+v", body)
	}
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(token)); err != nil {
		t.Fatalf("challenge token undecodable: %v", err)
	}
	if ch.Binding != "127.0.0.1" {
		t.Fatalf("challenge bound to %q", ch.Binding)
	}
}

func TestTransportSolvesTransparently(t *testing.T) {
	srv := newProtectedServer(t, newTestFramework(t, 2))
	var solves []puzzle.SolveStats
	client := &http.Client{Transport: NewTransport(
		WithSolveObserver(func(s puzzle.SolveStats) { solves = append(solves, s) }),
	)}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "the protected resource" {
		t.Fatalf("payload = %q", payload)
	}
	if len(solves) != 1 || solves[0].Attempts == 0 {
		t.Fatalf("solve observer saw %v", solves)
	}
}

func TestTransportPostWithGetBody(t *testing.T) {
	srv := newProtectedServer(t, newTestFramework(t, 1))
	client := &http.Client{Transport: NewTransport()}
	resp, err := client.Post(srv.URL, "text/plain", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (GetBody is set by http.NewRequest for strings.Reader)", resp.StatusCode)
	}
}

func TestBadSolutionTokenRejected(t *testing.T) {
	srv := newProtectedServer(t, newTestFramework(t, 2))
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderSolution, "garbage-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestWrongSolutionGetsFreshChallenge(t *testing.T) {
	fw := newTestFramework(t, 2)
	srv := newProtectedServer(t, fw)
	// Get a genuine challenge first.
	resp1, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	token := resp1.Header.Get(HeaderChallenge)
	_, _ = io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()

	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(token)); err != nil {
		t.Fatal(err)
	}
	// Deliberately wrong nonce.
	bad := puzzle.Solution{Challenge: ch, Nonce: 0}
	for bad.Challenge.Meets(bad.Nonce) {
		bad.Nonce++
	}
	badToken, err := bad.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderSolution, string(badToken))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != StatusChallenge {
		t.Fatalf("status = %d, want fresh challenge %d", resp2.StatusCode, StatusChallenge)
	}
	var body challengeBody
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Message, "solution rejected") {
		t.Fatalf("message = %q, want rejection note", body.Message)
	}
}

func TestReplayedSolutionRejected(t *testing.T) {
	srv := newProtectedServer(t, newTestFramework(t, 1))
	// First, complete a legitimate exchange and capture the solution.
	resp1, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	token := resp1.Header.Get(HeaderChallenge)
	_, _ = io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(token)); err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	solToken, err := sol.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	send := func() int {
		req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(HeaderSolution, string(solToken))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := send(); got != http.StatusOK {
		t.Fatalf("first redemption status = %d, want 200", got)
	}
	if got := send(); got != StatusChallenge {
		t.Fatalf("replay status = %d, want %d (fresh challenge)", got, StatusChallenge)
	}
}

func TestBypassPassesThrough(t *testing.T) {
	fw := newTestFramework(t, 0, core.WithBypassBelow(5)) // fallback threat 0 < 5
	srv := newProtectedServer(t, fw)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 without solving", resp.StatusCode)
	}
}

func TestTransportGivesUpAfterBudget(t *testing.T) {
	// A server that always challenges, never accepts.
	fw := newTestFramework(t, 0, core.WithReplayCacheSize(1))
	mw, err := NewMiddleware(fw, okHandler())
	if err != nil {
		t.Fatal(err)
	}
	always := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del(HeaderSolution) // pretend the solution never arrived
		mw.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(always)
	defer srv.Close()

	client := &http.Client{Transport: NewTransport(WithMaxAttempts(2))}
	_, err = client.Get(srv.URL)
	// http.Client wraps transport errors in *url.Error; errors.Is unwraps.
	if !errors.Is(err, ErrTooManyChallenges) {
		t.Fatalf("err = %v, want ErrTooManyChallenges", err)
	}
}

func TestClientIPExtraction(t *testing.T) {
	tests := []struct {
		name        string
		remote      string
		trustHeader string
		headerVal   string
		want        string
	}{
		{"host_port", "192.0.2.1:1234", "", "", "192.0.2.1"},
		{"no_port", "192.0.2.1", "", "", "192.0.2.1"},
		{"ipv6", "[2001:db8::1]:443", "", "", "2001:db8::1"},
		{"trusted_header", "10.0.0.1:1", "X-Real-IP", "203.0.113.7", "203.0.113.7"},
		{"trusted_header_absent", "10.0.0.1:1", "X-Real-IP", "", "10.0.0.1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/", nil)
			r.RemoteAddr = tt.remote
			if tt.headerVal != "" {
				r.Header.Set(tt.trustHeader, tt.headerVal)
			}
			if got := ClientIP(r, tt.trustHeader); got != tt.want {
				t.Errorf("ClientIP = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestTrustedIPHeaderBindsChallenge(t *testing.T) {
	fw := newTestFramework(t, 2)
	srv := newProtectedServer(t, fw, WithTrustedIPHeader("X-Real-IP"))
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Real-IP", "198.51.100.77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(resp.Header.Get(HeaderChallenge))); err != nil {
		t.Fatal(err)
	}
	if ch.Binding != "198.51.100.77" {
		t.Fatalf("binding = %q, want proxy-asserted IP", ch.Binding)
	}
}

func TestTransportIgnoresForeign428(t *testing.T) {
	// A 428 without our challenge header must pass through untouched.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(StatusChallenge)
	}))
	defer srv.Close()
	client := &http.Client{Transport: NewTransport()}
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != StatusChallenge {
		t.Fatalf("status = %d, want untouched 428", resp.StatusCode)
	}
}

// fixedRouter routes /api/ onto one framework and everything else onto
// another, honoring a "gold" tenant override — a miniature gatekeeper.
type fixedRouter struct {
	api, web *core.Framework
}

func (r fixedRouter) Route(path, tenant string) *core.Framework {
	if tenant == "gold" || strings.HasPrefix(path, "/api/") {
		return r.api
	}
	return r.web
}

func TestRoutedMiddlewarePicksPipelinePerRequest(t *testing.T) {
	polAPI, err := policy.NewFixed(9)
	if err != nil {
		t.Fatal(err)
	}
	polWeb, err := policy.NewFixed(2)
	if err != nil {
		t.Fatal(err)
	}
	router := fixedRouter{
		api: newTestFramework(t, 5, core.WithPolicy(polAPI)),
		web: newTestFramework(t, 5, core.WithPolicy(polWeb)),
	}
	mw, err := NewRoutedMiddleware(router, okHandler(), WithTenantHeader("X-Tenant"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	t.Cleanup(srv.Close)

	difficulty := func(path, tenant string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != StatusChallenge {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, StatusChallenge)
		}
		return resp.Header.Get(HeaderDifficulty)
	}
	if d := difficulty("/", ""); d != "2" {
		t.Fatalf("web difficulty = %s, want 2", d)
	}
	if d := difficulty("/api/v1", ""); d != "9" {
		t.Fatalf("api difficulty = %s, want 9", d)
	}
	if d := difficulty("/", "gold"); d != "9" {
		t.Fatalf("gold tenant difficulty = %s, want 9", d)
	}

	// The full solve loop works against a routed middleware: the same
	// pipeline that issued the challenge verifies the solution.
	client := &http.Client{Transport: NewTransport()}
	resp, err := client.Get(srv.URL + "/api/thing")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "the protected resource" {
		t.Fatalf("routed solve loop: status %d body %q", resp.StatusCode, body)
	}
}

func TestRoutedMiddlewareValidation(t *testing.T) {
	if _, err := NewRoutedMiddleware(nil, okHandler()); err == nil {
		t.Error("nil router accepted")
	}
	fw := newTestFramework(t, 0)
	if _, err := NewMiddleware(fw, okHandler(), WithTenantHeader("X-T")); err == nil {
		t.Error("tenant header without router accepted")
	}
	// Session tokens are IP-bound, not pipeline-scoped: combined with
	// routing, one cheap solve would buy pass-through on strict routes.
	router := fixedRouter{api: fw, web: fw}
	if _, err := NewRoutedMiddleware(router, okHandler(),
		WithSessionTokens(testKey, time.Minute)); err == nil {
		t.Error("session tokens with routed middleware accepted")
	}
}
