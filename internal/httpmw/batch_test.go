package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipow/internal/core"
	"aipow/internal/puzzle"
)

// batchRequestBody and batchResultBody are the endpoint's JSON envelopes
// as encoding/json reads and writes them: the reference the handler's own
// decoder and encoder are checked against.
type batchRequestBody struct {
	Requests []BatchRequest `json:"requests"`
}

type batchResultBody struct {
	Results []BatchResult `json:"results"`
}

// postBatch sends reqs to the handler and decodes the result envelope.
func postBatch(t *testing.T, h http.Handler, reqs []BatchRequest) (*httptest.ResponseRecorder, []BatchResult) {
	t.Helper()
	body, err := json.Marshal(batchRequestBody{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var out batchResultBody
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode results: %v (body %q)", err, rec.Body.String())
	}
	return rec, out.Results
}

// TestBatchHandlerFlow drives the full per-item state machine through one
// call: fresh decisions earn challenges, valid solutions pass, forged
// ones earn a fresh challenge with an explanation, malformed tokens are
// rejected.
func TestBatchHandlerFlow(t *testing.T) {
	fw := newTestFramework(t, 5)
	h, err := NewRoutedBatchHandler(fixedRouter{api: fw, web: fw})
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: two clients ask for decisions.
	_, results := postBatch(t, h, []BatchRequest{
		{IP: "203.0.113.1", Path: "/a"},
		{IP: "203.0.113.2", Path: "/b"},
	})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Status != BatchChallenge || res.Challenge == "" || res.Difficulty < puzzle.MinDifficulty {
			t.Fatalf("result %d = %+v, want a challenge", i, res)
		}
	}

	// Solve client 1's challenge for round 2.
	var ch puzzle.Challenge
	if err := ch.UnmarshalText([]byte(results[0].Challenge)); err != nil {
		t.Fatal(err)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	token, err := sol.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	forged := sol
	forged.Challenge.Tag[0] ^= 0xFF
	forgedToken, err := forged.MarshalText()
	if err != nil {
		t.Fatal(err)
	}

	// Round 2: a pass, a forgery, a malformed token, and a plain decide,
	// interleaved to exercise result-order restoration.
	_, results = postBatch(t, h, []BatchRequest{
		{IP: "203.0.113.3", Path: "/c"},
		{IP: "203.0.113.1", Solution: string(token)},
		{IP: "203.0.113.2", Solution: string(forgedToken)},
		{IP: "203.0.113.4", Solution: "not-a-token"},
	})
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Status != BatchChallenge {
		t.Errorf("plain decide = %+v, want challenge", results[0])
	}
	if results[1].Status != BatchPass || results[1].Error != "" {
		t.Errorf("valid solution = %+v, want pass", results[1])
	}
	if results[2].Status != BatchChallenge || results[2].Error != "solution rejected" || results[2].Challenge == "" {
		t.Errorf("forged solution = %+v, want fresh challenge with rejection note", results[2])
	}
	if results[3].Status != BatchRejected {
		t.Errorf("malformed token = %+v, want rejected", results[3])
	}
}

// TestBatchHandlerBypass pins the pass-through decision: zero-threat
// clients get Status pass without a challenge.
func TestBatchHandlerBypass(t *testing.T) {
	fw := newTestFramework(t, 0, core.WithBypassBelow(1))
	h, err := NewRoutedBatchHandler(fixedRouter{api: fw, web: fw})
	if err != nil {
		t.Fatal(err)
	}
	_, results := postBatch(t, h, []BatchRequest{{IP: "203.0.113.9"}})
	if len(results) != 1 || results[0].Status != BatchPass || results[0].Challenge != "" {
		t.Fatalf("bypass result = %+v", results)
	}
}

// TestBatchHandlerRejections covers the envelope guards: method, shape,
// size, and per-item IP validation.
func TestBatchHandlerRejections(t *testing.T) {
	fw := newTestFramework(t, 5)
	h := newBatchHandler(fixedRouter{api: fw, web: fw}, 2)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET → %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader("{")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON → %d", rec.Code)
	}

	if rec, _ := postBatch(t, h, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch → %d", rec.Code)
	}
	three := []BatchRequest{{IP: "a"}, {IP: "b"}, {IP: "c"}}
	if rec, _ := postBatch(t, h, three); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit batch → %d", rec.Code)
	}
	if rec, _ := postBatch(t, h, []BatchRequest{{IP: "a"}, {IP: ""}}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing ip → %d", rec.Code)
	}

	if _, err := NewRoutedBatchHandler(nil); err == nil {
		t.Error("nil router accepted")
	}
}

// mapRouter routes by tenant name, defaulting to the fallback framework.
type mapRouter struct {
	fallback *core.Framework
	tenants  map[string]*core.Framework
}

func (r mapRouter) Route(path, tenant string) *core.Framework {
	if fw, ok := r.tenants[tenant]; ok {
		return fw
	}
	return r.fallback
}

// TestRoutedBatchHandler checks per-item routing: items are grouped by
// their serving pipeline and results land back in request order.
func TestRoutedBatchHandler(t *testing.T) {
	strict := newTestFramework(t, 9)
	lax := newTestFramework(t, 0, core.WithBypassBelow(1))
	h, err := NewRoutedBatchHandler(mapRouter{
		fallback: strict,
		tenants:  map[string]*core.Framework{"gold": lax},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, results := postBatch(t, h, []BatchRequest{
		{IP: "203.0.113.20"},
		{IP: "203.0.113.21", Tenant: "gold"},
		{IP: "203.0.113.22"},
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Status != BatchChallenge || results[2].Status != BatchChallenge {
		t.Errorf("strict-tenant items = %+v / %+v, want challenges", results[0], results[2])
	}
	if results[1].Status != BatchPass {
		t.Errorf("gold-tenant item = %+v, want pass", results[1])
	}
}

// FuzzBatchBody posts arbitrary bytes to a routed batch handler. Whatever
// arrives, the handler answers 200, 400 or 413 with a JSON body; a 200
// carries one result per request; and an item passes only when its
// solution is accepted by a verifier holding the key, for that item's IP,
// and only once per challenge and pipeline. (The fixture's two pipelines
// share one key; a control.Registry derives one per pipeline, so there a
// token cannot cross pipelines at all.)
//
// Authenticity is checked under the key rather than against the
// challenges this process issued: fuzz workers rerun the set-up with
// fresh random seeds, so a seed token comes from another process.
func FuzzBatchBody(f *testing.F) {
	router := fixedRouter{api: newTestFramework(f, 5), web: newTestFramework(f, 1)}
	h := newBatchHandler(router, 4)
	verifier, err := puzzle.NewVerifier(testKey) // no replay cache: checks, never claims
	if err != nil {
		f.Fatal(err)
	}
	type redemption struct {
		fw  *core.Framework
		tag [puzzle.TagSize]byte
	}
	redeemed := make(map[redemption]bool)

	post := func(t testing.TB, body []byte) []BatchResult {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%d body is not JSON: %q", rec.Code, rec.Body)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return nil
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		// The handler's own decode: one JSON value, trailing bytes ignored.
		var in batchRequestBody
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		var out batchResultBody
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != len(in.Requests) {
			t.Fatalf("200 body %q for %d requests: %v", rec.Body, len(in.Requests), err)
		}
		for i, res := range out.Results {
			if res.Status != BatchPass {
				continue
			}
			item := in.Requests[i]
			var sol puzzle.Solution
			if sol.UnmarshalText([]byte(item.Solution)) != nil || verifier.Verify(sol, item.IP) != nil {
				t.Fatalf("item %d %+v passed without a solved challenge", i, item)
			}
			r := redemption{router.Route(item.Path, item.Tenant), sol.Challenge.Tag}
			if redeemed[r] {
				t.Fatalf("item %d %+v redeemed a solution twice", i, item)
			}
			redeemed[r] = true
		}
		return out.Results
	}
	body := func(reqs ...BatchRequest) []byte {
		buf, err := json.Marshal(batchRequestBody{Requests: reqs})
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}

	// Seeds: a valid two-item body, the empty shapes, one item over the
	// limit, an item without an IP, and a solved item.
	const ip = "198.51.100.7"
	two := body(BatchRequest{IP: ip, Path: "/api/x"}, BatchRequest{IP: "203.0.113.9", Path: "/"})
	results := post(f, two)
	var ch puzzle.Challenge
	if len(results) != 2 || ch.UnmarshalText([]byte(results[0].Challenge)) != nil {
		f.Fatalf("decide results %+v, want a challenge for %s", results, ip)
	}
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		f.Fatal(err)
	}
	text, err := sol.MarshalText()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add(body(BatchRequest{IP: "a"}, BatchRequest{IP: "b"}, BatchRequest{IP: "c"}, BatchRequest{IP: "d"}, BatchRequest{IP: "e"}))
	f.Add(body(BatchRequest{Path: "/api/x"}))
	f.Add(body(BatchRequest{IP: ip, Path: "/api/x", Solution: string(text)}))

	f.Fuzz(func(t *testing.T, body []byte) {
		post(t, body)
	})
}
