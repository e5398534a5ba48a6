package httpmw

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// refChallenge writes a 428 the way the middleware did before it
// append-encoded the response: Header().Set, fmt, and json.Encoder
// through writeJSON. It is the wire reference for the encoder.
func refChallenge(w http.ResponseWriter, token string, difficulty int, extraMsg string) {
	msg := fmt.Sprintf("solve the %d-difficult puzzle and retry with %s", difficulty, HeaderSolution)
	if extraMsg != "" {
		msg = extraMsg + "; " + msg
	}
	w.Header().Set(HeaderChallenge, token)
	w.Header().Set(HeaderDifficulty, fmt.Sprintf("%d", difficulty))
	writeJSON(w, StatusChallenge, challengeBody{Challenge: token, Difficulty: difficulty, Message: msg})
}

// forgedToken returns a solution token for the challenge in token with
// its tag flipped: it decodes, and Verify rejects it without any work.
func forgedToken(t testing.TB, token string) string {
	t.Helper()
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(token)); err != nil {
		t.Fatal(err)
	}
	ch.Tag[0] ^= 0xFF
	text, err := puzzle.Solution{Challenge: ch}.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestChallengeWireMatchesEncoder pins the 428 byte for byte — status,
// headers and body — to what Header().Set and json.Encoder produce, for
// hashcash and balloon tokens at every difficulty the backend issues
// (1…64 and 1…32), fresh and after a rejected solution. The token itself
// must be the base64url of the challenge's binary encoding, in the one
// backend-tagged format.
func TestChallengeWireMatchesEncoder(t *testing.T) {
	balloon, err := puzzle.NewBalloon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []puzzle.Backend{puzzle.Hashcash(), balloon} {
		maxD := backend.DifficultyCap()
		for d := puzzle.MinDifficulty; d <= maxD; d++ {
			pol, err := policy.NewFixed(d)
			if err != nil {
				t.Fatal(err)
			}
			fw := newTestFramework(t, 0, core.WithPolicy(pol), core.WithPuzzleBackend(backend),
				core.WithMaxDifficulty(maxD))
			mw, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, okHandler())
			if err != nil {
				t.Fatal(err)
			}
			solution := ""
			for _, extra := range []string{"", msgRejected} {
				req := httptest.NewRequest(http.MethodGet, "/", nil)
				if solution != "" {
					req.Header.Set(HeaderSolution, solution)
				}
				got := httptest.NewRecorder()
				mw.ServeHTTP(got, req)
				token := got.Header().Get(HeaderChallenge)

				var ch puzzle.Challenge
				if err := ch.UnmarshalText([]byte(token)); err != nil {
					t.Fatalf("%s d=%d: token %q: %v", backend.Name(), d, token, err)
				}
				raw, err := ch.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if ch.Version != puzzle.Version2 || ch.Backend != backend.ID() || ch.Difficulty != d ||
					token != base64.RawURLEncoding.EncodeToString(raw) {
					t.Fatalf("%s d=%d: token %q decodes to %v", backend.Name(), d, token, ch)
				}
				want := httptest.NewRecorder()
				refChallenge(want, token, d, extra)
				if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) ||
					!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s d=%d extra=%q:\n got %d %v %q\nwant %d %v %q", backend.Name(), d, extra,
						got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
				}
				solution = forgedToken(t, token)
			}
		}
	}
}

// sink is a reusable minimal http.ResponseWriter: it keeps the status
// and headers, in a map that reset clears without freeing, and drops the
// body.
type sink struct {
	h      http.Header
	status int
}

func newSink() *sink { return &sink{h: make(http.Header, 4)} }

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return len(p), nil
}

func (s *sink) reset() {
	clear(s.h)
	s.status = 0
}

// threatScorer is a one-slot vector scorer over the "threat" attribute:
// the allocation-free scoring contract production scorers use.
type threatScorer struct{ schema *features.Schema }

func (s threatScorer) Schema() *features.Schema               { return s.schema }
func (threatScorer) ScoreVector(v []float64) (float64, error) { return v[0], nil }

// TestChallengeAllocs counts heap allocations per request through a
// routed middleware with a trusted-IP header and a vector scorer. A
// challenge allocates twice: the token string and the backing array of
// the three header values (it took 14 with encoding/json, fmt and
// Header.Set). A redemption allocates twice, a rejected one with its
// re-challenge seven times (6 and 22 before).
func TestChallengeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	schema, err := features.NewSchema("threat")
	if err != nil {
		t.Fatal(err)
	}
	fw := newTestFramework(t, 2, core.WithScorer(threatScorer{schema}))
	mw, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, okHandler(), WithTrustedIPHeader("X-Real-IP"))
	if err != nil {
		t.Fatal(err)
	}
	const ip, runs = "198.51.100.7", 100
	w := newSink()
	req := httptest.NewRequest(http.MethodGet, "/api/thing", nil)
	ipValue := []string{ip}
	// serve writes the request's header map directly, so that its own
	// bookkeeping allocates nothing.
	serve := func(solution []string) int {
		w.reset()
		clear(req.Header)
		req.Header["X-Real-Ip"] = ipValue
		if solution != nil {
			req.Header[keySolution] = solution
		}
		mw.ServeHTTP(w, req)
		return w.status
	}
	challenge := func() {
		if status := serve(nil); status != StatusChallenge {
			t.Fatalf("challenge: status %d", status)
		}
	}
	if allocs := testing.AllocsPerRun(runs, challenge); allocs > 2 {
		t.Errorf("challenge: %v allocs/op, want ≤ 2", allocs)
	}

	// AllocsPerRun calls its function runs+1 times; give each call its own
	// solved token.
	tokens := make([][]string, runs+1)
	for i := range tokens {
		challenge()
		var ch puzzle.Challenge
		if err := ch.UnmarshalText([]byte(w.h.Get(HeaderChallenge))); err != nil {
			t.Fatal(err)
		}
		sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
		if err != nil {
			t.Fatal(err)
		}
		text, err := sol.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		tokens[i] = []string{string(text)}
	}
	next := 0
	redeem := func() {
		if status := serve(tokens[next]); status != http.StatusOK {
			t.Fatalf("redeem: status %d", status)
		}
		next++
	}
	// The binding string is the one copy decoding makes; okHandler's
	// io.WriteString into the sink is the other.
	if allocs := testing.AllocsPerRun(runs, redeem); allocs > 2 {
		t.Errorf("redeem: %v allocs/op, want ≤ 2", allocs)
	}
	// A replayed token is decoded, rejected (the verify error is most of
	// the cost) and re-challenged.
	reject := func() {
		if status := serve(tokens[0]); status != StatusChallenge {
			t.Fatalf("reject: status %d", status)
		}
	}
	if allocs := testing.AllocsPerRun(runs, reject); allocs > 7 {
		t.Errorf("reject and re-challenge: %v allocs/op, want ≤ 7", allocs)
	}
}

// FuzzMiddlewareHeaders feeds arbitrary X-Real-IP, X-PoW-Solution and
// X-PoW-Token bytes to a two-route middleware and to a one-route one.
// Neither may panic, or serve the resource without a solved challenge
// issued under the test key to the client and never served before,
// whatever X-PoW-Token carries: the door prices every request. Every 428
// body is valid JSON, byte-equal to encoding/json's encoding of the
// challengeBody it carries, and names the challenge of its header, bound
// to the client.
//
// Authenticity is checked under the key rather than against the
// challenges this process issued: fuzz workers rerun the set-up with
// fresh random seeds, so a seed token comes from another process.
func FuzzMiddlewareHeaders(f *testing.F) {
	routed, err := NewRoutedMiddleware(fixedRouter{api: newTestFramework(f, 5), web: newTestFramework(f, 1)},
		okHandler(), WithTrustedIPHeader("X-Real-IP"))
	if err != nil {
		f.Fatal(err)
	}
	fw := newTestFramework(f, 1)
	single, err := NewRoutedMiddleware(fixedRouter{api: fw, web: fw}, okHandler(), WithTrustedIPHeader("X-Real-IP"))
	if err != nil {
		f.Fatal(err)
	}
	verifier, err := puzzle.NewVerifier(testKey) // no replay cache: checks, never claims
	if err != nil {
		f.Fatal(err)
	}
	redeemed := map[*Middleware]map[[puzzle.TagSize]byte]bool{routed: {}, single: {}}

	serve := func(t testing.TB, mw *Middleware, ip, solution, token string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/api/x", nil)
		for key, v := range map[string]string{"X-Real-Ip": ip, keySolution: solution, http.CanonicalHeaderKey("X-PoW-Token"): token} {
			if v != "" {
				req.Header[key] = []string{v}
			}
		}
		client := ClientIP(req, "X-Real-IP")
		rec := httptest.NewRecorder()
		mw.ServeHTTP(rec, req)
		switch rec.Code {
		case StatusChallenge:
			var body challengeBody
			if !json.Valid(rec.Body.Bytes()) || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
				t.Fatalf("428 body is not a challengeBody: %q", rec.Body)
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(body); err != nil || !bytes.Equal(enc.Bytes(), rec.Body.Bytes()) {
				t.Fatalf("428 body %q, encoding/json writes %q", rec.Body, enc.Bytes())
			}
			if body.Challenge != rec.Header().Get(HeaderChallenge) ||
				strconv.Itoa(body.Difficulty) != rec.Header().Get(HeaderDifficulty) {
				t.Fatalf("428 body %q disagrees with headers %v", rec.Body, rec.Header())
			}
			var ch puzzle.Challenge
			if err := ch.UnmarshalText([]byte(body.Challenge)); err != nil || ch.Binding != client {
				t.Fatalf("428 challenge %q for %q: %v %v", body.Challenge, client, ch, err)
			}
		case http.StatusOK:
			var sol puzzle.Solution
			if sol.UnmarshalText([]byte(solution)) != nil || verifier.Verify(sol, client) != nil {
				t.Fatalf("served client %q solution %q token %q without a solved challenge", client, solution, token)
			}
			if redeemed[mw][sol.Challenge.Tag] {
				t.Fatalf("served client %q solution %q twice", client, solution)
			}
			redeemed[mw][sol.Challenge.Tag] = true
		case http.StatusBadRequest, http.StatusInternalServerError:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%d body is not JSON: %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d", rec.Code)
		}
		return rec
	}

	// Seeds: a solved exchange and a forgery on each middleware, session
	// tokens in the retired format (HMAC-signed under the test key for
	// each IP, valid until 2100), and malformed values.
	const ip = "198.51.100.7"
	for _, mw := range []*Middleware{routed, single} {
		rec := serve(f, mw, ip, "", "")
		var ch puzzle.Challenge
		if err := ch.UnmarshalText([]byte(rec.Header().Get(HeaderChallenge))); err != nil {
			f.Fatal(err)
		}
		sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
		if err != nil {
			f.Fatal(err)
		}
		text, err := sol.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ip, string(text), "")
		f.Add(ip, forgedToken(f, rec.Header().Get(HeaderChallenge)), "")
	}
	f.Add(ip, "", "OO7Pz1amAAAxOTguNTEuMTAwLjfuvBhX_vEjTfjo25MO1_azLyYhf8zZ1v8ylq91xtSveA")
	f.Add("203.0.113.9", "", "OO7Pz1amAAAyMDMuMC4xMTMuOUZ8MtE3dRsZx5Cy38Tkg63xdcUb8nKjczIXhpKokJQU")
	f.Add("", "", "")
	f.Add(ip, ".", "garbage")
	f.Add(string(bytes.Repeat([]byte("9"), 300)), "", "")
	f.Add("\x00\"<>&\u2028", "AAAA.0", "AAAA")

	f.Fuzz(func(t *testing.T, ip, solution, token string) {
		serve(t, routed, ip, solution, token)
		serve(t, single, ip, solution, token)
	})
}
