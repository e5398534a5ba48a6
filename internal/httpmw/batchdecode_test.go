package httpmw

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/policy"
	"aipow/internal/puzzle"
)

// decodeBatch runs the handler's decoder over body and returns its items
// as BatchRequests.
func decodeBatch(body []byte, limit int) ([]BatchRequest, error) {
	var d batchDecoder
	d.reset(body, limit)
	n, err := d.decode()
	if err != nil {
		return nil, err
	}
	reqs := make([]BatchRequest, n)
	for i, it := range d.items[:n] {
		reqs[i] = BatchRequest{
			IP:       string(it.ip),
			Path:     string(it.path),
			Tenant:   string(it.tenant),
			Solution: string(it.solution),
			Failed:   it.failed,
		}
	}
	return reqs, nil
}

// nested returns a document whose unknown key holds depth nested arrays,
// so the whole document nests depth+1 deep.
func nested(depth int) []byte {
	return []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"requests":[{"ip":"a"}]}`)
}

// requestsLens records the length of every "requests" array
// encoding/json decodes, a repeated key's included.
type requestsLens struct {
	Requests arrayLens `json:"requests"`
}

type arrayLens []int

func (l *arrayLens) UnmarshalJSON(b []byte) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(b, &elems); err != nil {
		return err
	}
	*l = append(*l, len(elems))
	return nil
}

// FuzzBatchDecode checks the handler's decoder against encoding/json,
// with a limit of 4 items. When json.Decoder fails on a body, the decoder
// fails. When it succeeds, the decoder reports the limit if some
// "requests" array holds more than 4 items (a later key replacing that
// array does not undo it), and else returns the same items. (An empty
// result compares equal to any other: nil or not, the handler answers
// "empty batch".)
func FuzzBatchDecode(f *testing.F) {
	const limit = 4
	for _, seed := range []string{
		// Plain documents, and whitespace between every token.
		`{"requests":[{"ip":"198.51.100.7","path":"/api/x","tenant":"gold","solution":"abc.1f","failed":true}]}`,
		" \t\n\r{ \"requests\" : [ { \"ip\" : \"a\" , \"failed\" : false } , { \"ip\" : \"b\" } ] } \n",
		// Escapes, surrogate pairs, lone surrogates, invalid UTF-8.
		`{"requests":[{"ip":"a\"b\\c\/d\b\f\n\r\t","path":"\u00e9\u4e16"}]}`,
		`{"requests":[{"ip":"\ud83d\ude00","path":"\uD83D\uDE00x"}]}`,
		`{"requests":[{"ip":"\ud83d","path":"\ude00x","tenant":"\ud83d\u0041","solution":"\ud83dx"}]}`,
		"{\"requests\":[{\"ip\":\"\xff\xfe\",\"path\":\"\xe2\x82\",\"tenant\":\"caf\xc3\xa9\"}]}",
		`{"requests":[{"ip":"a\'"}]}`,
		`{"requests":[{"ip":"\u12"}]}`,
		"{\"requests\":[{\"ip\":\"a\x01\"}]}",
		// Keys fold like bytes.EqualFold, after unquoting.
		`{"REQUESTS":[{"IP":"a","Solution":"s","PATH":"/p","Tenant":"t","FAILED":true}]}`,
		`{"requests":[{"ip":"a","ſolution":"s"}],"reque\u017Fts":[{"\u0069p":"b"}]}`,
		`{"requests":[{"ip":"a","sOlUtIoN":"s","\u212Aey":1}]}`,
		// Duplicate keys: the last value wins, decoding over the earlier.
		`{"requests":[{"ip":"a","ip":"b","failed":true,"failed":null}]}`,
		`{"requests":[{"ip":"a","path":"/p"},{"ip":"b","path":"/q"}],"requests":[{"ip":"c"}],"requests":[{"ip":"d"},{}]}`,
		`{"requests":[{"ip":"a"}],"requests":[]}`,
		`{"requests":[{"ip":"a"}],"requests":null,"requests":[{"path":"/p"}]}`,
		`{"requests":[{"ip":"a"},{"ip":"b"},{"ip":"c"},{"ip":"d"},{"ip":"e"}],"requests":[{"path":"/p"}]}`,
		// Null items and fields, and a null document.
		`{"requests":[null,{"ip":null,"path":null,"tenant":null,"solution":null,"failed":null}]}`,
		`{"requests":[{"ip":"a"}],"requests":[null]}`,
		`{"requests":null}`,
		`null`,
		`nullx`,
		`nul`,
		// Unknown keys hold any valid value, and only valid ones.
		`{"x":-1.5e+10,"y":{"a":[1,true,null,"s",{}],"b":[]},"requests":[{"ip":"a","z":[0.5,-0,1E9,{"k":false}]}]}`,
		`{"x":01,"requests":[{"ip":"a"}]}`,
		`{"x":1.,"requests":[{"ip":"a"}]}`,
		`{"x":-,"requests":[{"ip":"a"}]}`,
		`{"x":1e,"requests":[{"ip":"a"}]}`,
		`{"x":[1,],"requests":[{"ip":"a"}]}`,
		`{"x":{"a":1,},"requests":[{"ip":"a"}]}`,
		`{"x":{"a"},"requests":[{"ip":"a"}]}`,
		`{"x":{1:2},"requests":[{"ip":"a"}]}`,
		`{"x":tru,"requests":[{"ip":"a"}]}`,
		`{"x":[}`,
		// Nesting: 10 000 levels are allowed, 10 001 are not.
		string(nested(9999)),
		string(nested(10000)),
		// Trailing bytes after the first value are ignored.
		`{"requests":[{"ip":"a"}]}garbage`,
		`{"requests":[{"ip":"a"}]} {"requests":[{"ip":"b"}]}`,
		// Wrong types.
		`{"requests":[{"ip":"a","failed":1}]}`,
		`{"requests":[{"ip":"a","failed":"true"}]}`,
		`{"requests":[{"ip":5}]}`,
		`{"requests":[{"ip":["a"]}]}`,
		`{"requests":[{"path":{}}]}`,
		`{"requests":[1]}`,
		`{"requests":["a"]}`,
		`{"requests":[[]]}`,
		`{"requests":{}}`,
		`{"requests":"a"}`,
		`[]`,
		`"x"`,
		`1`,
		`true`,
		// Truncated and empty bodies.
		``,
		`   `,
		`{`,
		`{"requests":[{"ip":"a"}`,
		`{"requests":[{"ip":"a"},`,
		`{"requests"`,
		`{"requests":`,
		`{}`,
		`{"requests":[]}`,
		// Over the limit, valid and not.
		`{"requests":[{"ip":"a"},{"ip":"b"},{"ip":"c"},{"ip":"d"},{"ip":"e"}]}`,
		`{"requests":[{"ip":"a"},{"ip":"b"},{"ip":"c"},{"ip":"d"},{"ip":"e"},{`,
		`{"requests":[{},{},{},{},{"ip":5}],"requests":[{"ip":"a"}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var ref batchRequestBody
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
		got, err := decodeBatch(body, limit)
		if refErr != nil {
			if err == nil {
				t.Fatalf("decoded %q to %+v; encoding/json fails: %v", body, got, refErr)
			}
			return
		}
		var lens requestsLens
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&lens); err != nil {
			t.Fatalf("%q: counting arrays: %v", body, err)
		}
		over := false
		for _, n := range lens.Requests {
			over = over || n > limit
		}
		switch {
		case over != errors.Is(err, errBatchOverLimit):
			t.Fatalf("%q: err = %v; encoding/json reads arrays of %v items", body, err, lens.Requests)
		case over:
		case err != nil:
			t.Fatalf("%q: %v; encoding/json decodes %+v", body, err, ref.Requests)
		case len(got) == 0 && len(ref.Requests) == 0:
		case !reflect.DeepEqual(got, ref.Requests):
			t.Fatalf("%q:\n got %+v\nwant %+v", body, got, ref.Requests)
		}
	})
}

// readerBody is a request body that can be rewound without allocating.
type readerBody struct{ *bytes.Reader }

func (readerBody) Close() error { return nil }

// TestBatchBodyBound pins the body bounds: a body is read up to limit ×
// 4 KiB bytes, and decoding keeps at most limit items, so an over-limit
// body is refused without materializing its items, and one that is also
// malformed past the limit is refused as over the limit.
func TestBatchBodyBound(t *testing.T) {
	fw := newTestFramework(t, 5)
	items := func(n int) string {
		return `{"requests":[` + strings.TrimSuffix(strings.Repeat(`{"ip":"198.51.100.7","path":"/p"},`, n), ",") + `]}`
	}
	// sized returns a one-item document of exactly size bytes.
	sized := func(size int) string {
		const prefix, suffix = `{"requests":[{"ip":"a","path":"/`, `"}]}`
		return prefix + strings.Repeat("p", size-len(prefix)-len(suffix)) + suffix
	}
	for _, tc := range []struct {
		name   string
		limit  int
		body   string
		status int
		// maxAllocs bounds the heap allocations of one call, once the
		// scratch pool is warm: decoding allocates nothing per item.
		maxAllocs float64
	}{
		{"1025 items", DefaultBatchLimit, items(DefaultBatchLimit + 1), http.StatusRequestEntityTooLarge, 30},
		{"1024 items", DefaultBatchLimit, items(DefaultBatchLimit), http.StatusOK, 0},
		{"over the byte bound", 2, sized(2*batchItemBytes + 1), http.StatusRequestEntityTooLarge, 30},
		{"at the byte bound", 2, sized(2 * batchItemBytes), http.StatusOK, 0},
		{"over the limit, then malformed", 2, strings.TrimSuffix(items(3), "]}") + `,{"ip":`, http.StatusRequestEntityTooLarge, 30},
		{"malformed within the limit", 2, strings.TrimSuffix(items(1), "]}") + `,{"ip":`, http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newBatchHandler(fixedRouter{api: fw, web: fw}, tc.limit)
			if tc.status == http.StatusOK && len(tc.body) > tc.limit*batchItemBytes {
				t.Fatalf("fixture: %d-byte body over the %d-byte bound", len(tc.body), tc.limit*batchItemBytes)
			}
			rd := readerBody{bytes.NewReader(nil)}
			req := httptest.NewRequest(http.MethodPost, "/batch", nil)
			w := newSink()
			serve := func() {
				rd.Reset([]byte(tc.body))
				req.Body = rd
				w.reset()
				h.ServeHTTP(w, req)
			}
			serve()
			if w.status != tc.status {
				t.Fatalf("status %d, want %d", w.status, tc.status)
			}
			if tc.maxAllocs == 0 || raceEnabled {
				return
			}
			if n := testing.AllocsPerRun(20, serve); n > tc.maxAllocs {
				t.Errorf("%v allocations per call, want at most %v", n, tc.maxAllocs)
			}
		})
	}
}

// TestBatchScratchDropsLargeBuffers checks that a scratch whose buffers
// grew past maxPooledBytes is not pooled again.
func TestBatchScratchDropsLargeBuffers(t *testing.T) {
	grown := new(batchScratch)
	grown.body.Grow(maxPooledBytes + 1)
	for _, sc := range []*batchScratch{
		grown,
		{out: make([]byte, 0, maxPooledBytes+1)},
		{dec: batchDecoder{esc: make([]byte, 0, maxPooledBytes+1)}},
		{dec: batchDecoder{items: make([]batchItem, DefaultBatchLimit+1)}},
	} {
		sc.release()
		for i := 0; i < 4; i++ {
			if batchPool.Get().(*batchScratch) == sc {
				t.Fatal("an oversized scratch came back from the pool")
			}
		}
	}
}

// TestBatchResultWire checks that the handler's 200 body is byte for byte
// what json.Encoder writes for the decoded results, over every result
// shape — challenge, pass, re-challenge after a rejected solution,
// bypass after one, malformed token and plain bypass — over one route
// and over two.
func TestBatchResultWire(t *testing.T) {
	const strictIP, laxIP = "203.0.113.1", "203.0.113.2"
	store, err := features.NewMapStore(map[string]float64{"threat": 5})
	if err != nil {
		t.Fatal(err)
	}
	store.Put(laxIP, map[string]float64{"threat": 0})
	mixed, err := core.New(core.WithKey(testKey), core.WithScorer(attrScorer), core.WithPolicy(policy.Policy1()),
		core.WithSource(store), core.WithBypassBelow(1))
	if err != nil {
		t.Fatal(err)
	}
	strict := newTestFramework(t, 5)
	lax := newTestFramework(t, 0, core.WithBypassBelow(1))
	single, err := NewRoutedBatchHandler(fixedRouter{api: mixed, web: mixed})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := NewRoutedBatchHandler(mapRouter{fallback: strict, tenants: map[string]*core.Framework{"gold": lax}})
	if err != nil {
		t.Fatal(err)
	}

	// solve returns a solution token for the challenge in res, and the
	// same token with a forged tag.
	solve := func(res BatchResult) (token, forged string) {
		t.Helper()
		var ch puzzle.Challenge
		if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil {
			t.Fatalf("result %+v: %v", res, err)
		}
		sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
		if err != nil {
			t.Fatal(err)
		}
		good, err := sol.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		sol.Challenge.Tag[0] ^= 0xFF
		bad, err := sol.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		return string(good), string(bad)
	}
	for _, tc := range []struct {
		name            string
		h               *BatchHandler
		strict, lax     BatchRequest
		strictTwo, lax2 BatchRequest // a second strict item, a second lax one
	}{
		{"single", single,
			BatchRequest{IP: strictIP, Path: "/a"}, BatchRequest{IP: laxIP, Path: "/b"},
			BatchRequest{IP: "203.0.113.3"}, BatchRequest{IP: laxIP, Path: "/c"}},
		{"routed", routed,
			BatchRequest{IP: strictIP, Path: "/a"}, BatchRequest{IP: laxIP, Path: "/b", Tenant: "gold"},
			BatchRequest{IP: "203.0.113.3"}, BatchRequest{IP: "203.0.113.4", Tenant: "gold"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, first := postBatch(t, tc.h, []BatchRequest{tc.strict, tc.strictTwo})
			if len(first) != 2 || first[0].Status != BatchChallenge || first[1].Status != BatchChallenge {
				t.Fatalf("first round %+v, want two challenges", first)
			}
			good, _ := solve(first[0])
			_, forged := solve(first[1])
			pass, reChallenge, laxForged := tc.strict, tc.strictTwo, tc.lax2
			pass.Solution, reChallenge.Solution, laxForged.Solution = good, forged, forged
			malformed := tc.strict
			malformed.Solution = "not-a-token"
			reqs := []BatchRequest{tc.strict, pass, tc.lax, reChallenge, malformed, laxForged, tc.lax}
			body, err := json.Marshal(batchRequestBody{Requests: reqs})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != contentTypeJSON {
				t.Errorf("Content-Type %q, want %q", ct, contentTypeJSON)
			}
			var out batchResultBody
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			want := []string{
				BatchChallenge, BatchPass, BatchPass, BatchChallenge + " " + msgRejected,
				BatchRejected + " malformed solution token", BatchPass + " " + msgRejected, BatchPass,
			}
			for i, res := range out.Results {
				got := strings.TrimSpace(res.Status + " " + res.Error)
				if i >= len(want) || got != want[i] || (res.Status == BatchChallenge) != (res.Challenge != "") {
					t.Fatalf("results %+v, want %q", out.Results, want)
				}
			}
			var enc bytes.Buffer
			if err := json.NewEncoder(&enc).Encode(out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), enc.Bytes()) {
				t.Errorf("200 body\n%s\ndiffers from json.Encoder's\n%s", rec.Body, enc.Bytes())
			}
		})
	}
}

// TestBatchHandlerConcurrent posts from several goroutines at once: each
// call's items, decoded into a pooled scratch, must come back as its own
// challenges, bound to its own IPs.
func TestBatchHandlerConcurrent(t *testing.T) {
	fw := newTestFramework(t, 5)
	h, err := NewRoutedBatchHandler(fixedRouter{api: fw, web: fw})
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls, items = 4, 20, 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				reqs := make([]BatchRequest, items)
				for i := range reqs {
					reqs[i] = BatchRequest{IP: fmt.Sprintf("198.51.%d.%d", g, c*items+i), Path: fmt.Sprintf("/p%d", i%2)}
				}
				body, err := json.Marshal(batchRequestBody{Requests: reqs})
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
				var out batchResultBody
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != items {
					t.Errorf("status %d: %d results (%v)", rec.Code, len(out.Results), err)
					return
				}
				for i, res := range out.Results {
					var ch puzzle.Challenge
					if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil || ch.Binding != reqs[i].IP {
						t.Errorf("item %d (%s): %+v bound to %q (%v)", i, reqs[i].IP, res, ch.Binding, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
