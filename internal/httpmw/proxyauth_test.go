package httpmw

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

var proxyEpoch = time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)

func testProxyAuth(t *testing.T) *ProxyAuth {
	t.Helper()
	a, err := NewProxyAuth(DeriveProxyAuthKey([]byte("root-key-0123456789abcdef")))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// signedRequest is a batch request a signed for ip at proxyEpoch.
func signedRequest(a *ProxyAuth, ip string) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/batch", nil)
	a.signAt(r.Header, ip, proxyEpoch)
	return r
}

func TestProxyAuthRoundTrip(t *testing.T) {
	a := testProxyAuth(t)
	r := signedRequest(a, "198.51.100.9")
	ip, err := a.authenticateAt(r, proxyEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if ip != "198.51.100.9" {
		t.Fatalf("authenticated IP %q, want 198.51.100.9", ip)
	}
}

func TestProxyAuthRejectsSkewedTimestamps(t *testing.T) {
	a := testProxyAuth(t)
	r := signedRequest(a, "198.51.100.9")

	// Inside the window: fine.
	if _, err := a.authenticateAt(r, proxyEpoch.Add(DefaultProxyAuthSkew-time.Second)); err != nil {
		t.Fatalf("in-window timestamp rejected: %v", err)
	}
	// Stale: a captured header triple must not replay later.
	if _, err := a.authenticateAt(r, proxyEpoch.Add(DefaultProxyAuthSkew+time.Second)); !errors.Is(err, ErrProxyAuth) {
		t.Fatalf("stale signature accepted: %v", err)
	}
	// From the future beyond skew: equally rejected.
	if _, err := a.authenticateAt(r, proxyEpoch.Add(-DefaultProxyAuthSkew-time.Second)); !errors.Is(err, ErrProxyAuth) {
		t.Fatalf("future signature accepted: %v", err)
	}
}

func TestProxyAuthFailsClosed(t *testing.T) {
	a := testProxyAuth(t)

	// Missing headers.
	r := httptest.NewRequest(http.MethodPost, "/batch", nil)
	if _, err := a.authenticateAt(r, proxyEpoch); !errors.Is(err, ErrProxyAuth) {
		t.Fatal("unsigned request accepted")
	}
	// Tampered IP: the signature binds it.
	r = signedRequest(a, "198.51.100.9")
	r.Header.Set(HeaderProxyIP, "203.0.113.7")
	if _, err := a.authenticateAt(r, proxyEpoch); !errors.Is(err, ErrProxyAuth) {
		t.Fatal("IP swap accepted")
	}
	// Tampered timestamp.
	r = signedRequest(a, "198.51.100.9")
	r.Header.Set(HeaderProxyTimestamp, "1")
	if _, err := a.authenticateAt(r, proxyEpoch); !errors.Is(err, ErrProxyAuth) {
		t.Fatal("timestamp swap accepted")
	}
	// Garbled signature.
	r = signedRequest(a, "198.51.100.9")
	r.Header.Set(HeaderProxySignature, "AAAA")
	if _, err := a.authenticateAt(r, proxyEpoch); !errors.Is(err, ErrProxyAuth) {
		t.Fatal("garbled signature accepted")
	}
	// A signer under a different root key is a different fleet.
	other, err := NewProxyAuth(DeriveProxyAuthKey([]byte("other-root-0123456789abcdef")))
	if err != nil {
		t.Fatal(err)
	}
	r = signedRequest(other, "198.51.100.9")
	if _, err := a.authenticateAt(r, proxyEpoch); !errors.Is(err, ErrProxyAuth) {
		t.Fatal("foreign-fleet signature accepted")
	}
}

func TestDeriveProxyAuthKeyIsStable(t *testing.T) {
	root := []byte("root-key-0123456789abcdef")
	a := DeriveProxyAuthKey(root)
	b := DeriveProxyAuthKey(root)
	if string(a) != string(b) {
		t.Fatal("derivation not deterministic")
	}
	if string(a) == string(root) {
		t.Fatal("derived key equals root key")
	}
	if len(a) != 32 {
		t.Fatalf("derived key length %d, want 32", len(a))
	}
}

func TestNewProxyAuthValidation(t *testing.T) {
	if _, err := NewProxyAuth([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := NewProxyAuth(DeriveProxyAuthKey([]byte("root-key-0123456789abcdef")),
		WithProxyAuthSkew(-time.Second)); err == nil {
		t.Fatal("negative skew accepted")
	}
}

// FuzzProxyAuth drives Authenticate with arbitrary header triples. It must
// never panic, must accept exactly the triples Sign produces for that IP
// and timestamp while the timestamp is inside the skew window, and must
// return the header's IP; Sign followed by Authenticate round-trips every
// non-empty IP.
func FuzzProxyAuth(f *testing.F) {
	key := DeriveProxyAuthKey([]byte("root-key-0123456789abcdef"))
	a, err := NewProxyAuth(key)
	if err != nil {
		f.Fatal(err)
	}
	signedAt := func(at time.Time, ip string) http.Header {
		h := http.Header{}
		a.signAt(h, ip, at)
		return h
	}
	for _, h := range []http.Header{
		signedAt(proxyEpoch, "198.51.100.9"),
		signedAt(proxyEpoch.Add(DefaultProxyAuthSkew), "2001:db8::1"),
		signedAt(proxyEpoch.Add(-DefaultProxyAuthSkew-time.Nanosecond), "203.0.113.7"),
	} {
		f.Add(h.Get(HeaderProxyIP), h.Get(HeaderProxyTimestamp), h.Get(HeaderProxySignature))
	}
	f.Add("198.51.100.9", "1", "AAAA")
	f.Add("", "", "")
	f.Add("198.51.100.9", "-9223372036854775808", "")
	f.Fuzz(func(t *testing.T, ip, ts, sig string) {
		r := httptest.NewRequest(http.MethodPost, "/batch", nil)
		r.Header.Set(HeaderProxyIP, ip)
		r.Header.Set(HeaderProxyTimestamp, ts)
		r.Header.Set(HeaderProxySignature, sig)
		got, err := a.authenticateAt(r, proxyEpoch)

		want := false
		if tsNano, perr := strconv.ParseInt(ts, 10, 64); perr == nil && ip != "" {
			at := time.Unix(0, tsNano)
			h := signedAt(at, ip)
			d := proxyEpoch.Sub(at)
			want = h.Get(HeaderProxyTimestamp) == ts && h.Get(HeaderProxySignature) == sig &&
				d <= DefaultProxyAuthSkew && d >= -DefaultProxyAuthSkew
		}
		switch {
		case err == nil && !want:
			t.Fatalf("accepted a triple Sign would not produce in the window: ip %q ts %q sig %q", ip, ts, sig)
		case err != nil && want:
			t.Fatalf("rejected a fresh signed triple: %v", err)
		case err != nil && !errors.Is(err, ErrProxyAuth):
			t.Fatalf("rejection %v is not ErrProxyAuth", err)
		case err == nil && got != ip:
			t.Fatalf("authenticated IP %q, want the header's %q", got, ip)
		}

		rt, err := a.authenticateAt(signedRequest(a, ip), proxyEpoch)
		if ip == "" {
			if err == nil {
				t.Fatal("signed triple with an empty IP accepted")
			}
		} else if err != nil || rt != ip {
			t.Fatalf("Sign → Authenticate(%q) = %q, %v", ip, rt, err)
		}
	})
}
