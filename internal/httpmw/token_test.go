package httpmw

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/core"
	"aipow/internal/puzzle"
)

// newServerFor serves an explicit handler with cleanup.
func newServerFor(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func TestTokenSignerRoundTrip(t *testing.T) {
	s := &tokenSigner{key: testKey}
	now := time.Now()
	tok := s.Mint("192.0.2.1", time.Minute, now)
	if err := s.Validate(tok, "192.0.2.1", now); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTokenSignerRejections(t *testing.T) {
	now := time.Unix(1000, 0)
	s := &tokenSigner{key: testKey}
	tok := s.Mint("192.0.2.1", time.Minute, now)

	if err := s.Validate(tok, "203.0.113.9", now); !errors.Is(err, ErrTokenInvalid) {
		t.Errorf("wrong binding err = %v, want ErrTokenInvalid", err)
	}
	if err := s.Validate("!!!", "192.0.2.1", now); !errors.Is(err, ErrTokenInvalid) {
		t.Errorf("garbage err = %v, want ErrTokenInvalid", err)
	}
	if err := s.Validate("AAAA", "192.0.2.1", now); !errors.Is(err, ErrTokenInvalid) {
		t.Errorf("truncated err = %v, want ErrTokenInvalid", err)
	}
	other := &tokenSigner{key: []byte("ffffffffffffffffffffffffffffffff")}
	if err := other.Validate(tok, "192.0.2.1", now); !errors.Is(err, ErrTokenInvalid) {
		t.Errorf("wrong key err = %v, want ErrTokenInvalid", err)
	}
	if err := s.Validate(tok, "192.0.2.1", now.Add(2*time.Minute)); !errors.Is(err, ErrTokenExpired) {
		t.Errorf("expired err = %v, want ErrTokenExpired", err)
	}
}

func TestTokenSignerTamperedPayload(t *testing.T) {
	s := &tokenSigner{key: testKey}
	now := time.Now()
	tok := s.Mint("192.0.2.1", time.Minute, now)
	// Flip one character of the base64 payload.
	b := []byte(tok)
	if b[0] == 'A' {
		b[0] = 'B'
	} else {
		b[0] = 'A'
	}
	if err := s.Validate(string(b), "192.0.2.1", now); !errors.Is(err, ErrTokenInvalid) {
		t.Fatalf("tampered token err = %v, want ErrTokenInvalid", err)
	}
}

func TestNewMiddlewareTokenValidation(t *testing.T) {
	fw := newTestFramework(t, 0)
	if _, err := NewMiddleware(fw, okHandler(), WithSessionTokens([]byte("short"), time.Minute)); err == nil {
		t.Error("short token key accepted")
	}
	if _, err := NewMiddleware(fw, okHandler(), WithSessionTokens(testKey, 0)); err == nil {
		t.Error("zero token TTL accepted")
	}
}

// TestSessionTokenAmortizesSolving is the end-to-end token flow: the first
// request solves a puzzle and receives a token, subsequent requests ride
// the token with zero additional solves.
func TestSessionTokenAmortizesSolving(t *testing.T) {
	fw := newTestFramework(t, 3)
	var served atomic.Int64
	mw, err := NewMiddleware(fw, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		_, _ = io.WriteString(w, "ok")
	}), WithSessionTokens(testKey, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerFor(t, mw)

	solves := 0
	client := &http.Client{Transport: NewTransport(
		WithSolveObserver(func(puzzle.SolveStats) { solves++ }),
	)}
	for i := 0; i < 5; i++ {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	if solves != 1 {
		t.Fatalf("solved %d puzzles over 5 requests, want exactly 1 (token amortization)", solves)
	}
	if served.Load() != 5 {
		t.Fatalf("served %d, want 5", served.Load())
	}
}

func TestExpiredTokenTriggersFreshPuzzle(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	fw := newTestFramework(t, 2, core.WithClock(clock))
	mw, err := NewMiddleware(fw, okHandler(), WithSessionTokens(testKey, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerFor(t, mw)

	solves := 0
	client := &http.Client{Transport: NewTransport(
		WithSolveObserver(func(puzzle.SolveStats) { solves++ }),
	)}
	get := func() {
		t.Helper()
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	get()                      // solve #1, token minted
	get()                      // rides token
	now = now.Add(time.Minute) // token expires
	get()                      // solve #2, new token
	get()                      // rides new token
	if solves != 2 {
		t.Fatalf("solves = %d, want 2", solves)
	}
}
