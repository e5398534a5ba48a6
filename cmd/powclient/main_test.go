package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipow"
)

// TestSolvesAgainstProtectedServer drives powclient against a server
// behind the PoW middleware: every request is challenged, solved and
// served, and run succeeds.
func TestSolvesAgainstProtectedServer(t *testing.T) {
	scorer, err := aipow.NewMapScorer(func(attrs map[string]float64) (float64, error) {
		return attrs["threat"], nil
	}, "threat")
	if err != nil {
		t.Fatal(err)
	}
	store, err := aipow.NewMapStore(map[string]float64{"threat": 2})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := aipow.New(
		aipow.WithKey([]byte("0123456789abcdef0123456789abcdef")),
		aipow.WithScorer(scorer),
		aipow.WithPolicy(aipow.Policy1()),
		aipow.WithSource(store),
	)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := aipow.NewHTTPMiddleware(fw, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mw)
	defer srv.Close()

	var out strings.Builder
	if err := run([]string{"-url", srv.URL, "-n", "5", "-concurrency", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"requests: 5 ok, 0 failed", "solving : 5 puzzles"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFailsWhenRequestsFail pins the exit status: a server that answers
// 500 makes run return an error, so powclient exits 1.
func TestFailsWhenRequestsFail(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	var out strings.Builder
	err := run([]string{"-url", srv.URL, "-n", "3"}, &out)
	if err == nil || !strings.Contains(out.String(), "requests: 0 ok, 3 failed") {
		t.Fatalf("run = %v, output:\n%s\nwant an error and 3 failures", err, out.String())
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Error("-n 0 accepted")
	}
}
