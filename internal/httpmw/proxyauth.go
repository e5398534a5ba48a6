package httpmw

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Signed-header proxy authentication: an upstream proxy (edge LB, WAF
// tier, ingestion worker) proves it is an authorized fleet member on
// every request by signing the client IP it fronts plus a timestamp with
// a key derived from the deployment's root key — so batch serving
// (POST /batch) no longer requires sharing the admin bearer token with
// every proxy, and a leaked admin token no longer means a leaked serving
// path. Signatures expire with the timestamp (skew-bounded), so a
// captured header triple cannot be replayed later.
const (
	// HeaderProxyIP carries the client IP the proxy is acting for.
	HeaderProxyIP = "X-AIPoW-Client-IP"

	// HeaderProxyTimestamp is the signing time in decimal Unix
	// nanoseconds.
	HeaderProxyTimestamp = "X-AIPoW-Batch-Timestamp"

	// HeaderProxySignature authenticates the (IP, timestamp) pair.
	HeaderProxySignature = "X-AIPoW-Batch-Signature"
)

// ErrProxyAuth reports a missing, malformed, stale, or forged proxy
// signature.
var ErrProxyAuth = errors.New("httpmw: proxy authentication failed")

// proxyAuthMagic domain-separates proxy-auth HMACs from challenge, token,
// and frame HMACs under related keys.
const proxyAuthMagic = "AIPoW-proxy-auth/1\x00"

// proxyKeyDomain derives the proxy-auth key from the deployment root key.
const proxyKeyDomain = "aipow-batch-proxy-key"

// DefaultProxyAuthSkew bounds how far a signed timestamp may sit from the
// verifier's clock — generous enough for real proxy clock drift, tight
// enough that a captured header triple goes stale in minutes.
const DefaultProxyAuthSkew = 2 * time.Minute

// DeriveProxyAuthKey derives the proxy-auth signing key from a
// deployment's root HMAC key. Both ends derive rather than share: every
// fleet node holding the root key accepts the same proxy signatures, and
// the root key itself never travels to the proxy tier.
func DeriveProxyAuthKey(root []byte) []byte {
	mac := hmac.New(sha256.New, root)
	mac.Write([]byte(proxyKeyDomain))
	return mac.Sum(nil)
}

// ProxyAuth signs and verifies the proxy header scheme. Safe for
// concurrent use.
type ProxyAuth struct {
	key  []byte
	skew time.Duration
}

// ProxyAuthOption customizes a ProxyAuth.
type ProxyAuthOption func(*ProxyAuth)

// WithProxyAuthSkew sets the tolerated timestamp skew (default
// DefaultProxyAuthSkew).
func WithProxyAuthSkew(skew time.Duration) ProxyAuthOption {
	return func(a *ProxyAuth) { a.skew = skew }
}

// NewProxyAuth builds a signer/verifier over the derived proxy-auth key
// (see DeriveProxyAuthKey).
func NewProxyAuth(key []byte, opts ...ProxyAuthOption) (*ProxyAuth, error) {
	if len(key) < 16 {
		return nil, fmt.Errorf("httpmw: proxy-auth key of %d bytes is below the 16-byte minimum", len(key))
	}
	a := &ProxyAuth{
		key:  append([]byte(nil), key...),
		skew: DefaultProxyAuthSkew,
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.skew <= 0 {
		return nil, fmt.Errorf("httpmw: non-positive proxy-auth skew %v", a.skew)
	}
	return a, nil
}

// Sign stamps the header triple onto h for a request fronting clientIP:
// the proxy side of the scheme. The timestamp is the wall clock's: the
// two sides are separate processes, so only real time is shared.
func (a *ProxyAuth) Sign(h http.Header, clientIP string) { a.signAt(h, clientIP, time.Now()) }

// signAt is Sign with the timestamp now.
func (a *ProxyAuth) signAt(h http.Header, clientIP string, now time.Time) {
	ts := strconv.FormatInt(now.UnixNano(), 10)
	h.Set(HeaderProxyIP, clientIP)
	h.Set(HeaderProxyTimestamp, ts)
	h.Set(HeaderProxySignature, a.sign(clientIP, ts))
}

// Authenticate verifies a request's header triple and returns the
// authenticated client IP. Fail closed: anything missing, unparseable,
// outside the skew window of the wall clock, or mis-signed is
// ErrProxyAuth.
func (a *ProxyAuth) Authenticate(r *http.Request) (string, error) {
	return a.authenticateAt(r, time.Now())
}

// authenticateAt is Authenticate against the clock reading now.
func (a *ProxyAuth) authenticateAt(r *http.Request, now time.Time) (string, error) {
	ip := r.Header.Get(HeaderProxyIP)
	ts := r.Header.Get(HeaderProxyTimestamp)
	sig := r.Header.Get(HeaderProxySignature)
	if ip == "" || ts == "" || sig == "" {
		return "", fmt.Errorf("%w: missing header", ErrProxyAuth)
	}
	// Verify the signature before trusting the timestamp: a forger learns
	// nothing about which check failed.
	want := a.sign(ip, ts)
	if subtle := hmac.Equal([]byte(sig), []byte(want)); !subtle {
		return "", fmt.Errorf("%w: bad signature", ErrProxyAuth)
	}
	tsNano, err := strconv.ParseInt(ts, 10, 64)
	if err != nil {
		return "", fmt.Errorf("%w: bad timestamp", ErrProxyAuth)
	}
	if d := now.Sub(time.Unix(0, tsNano)); d > a.skew || d < -a.skew {
		return "", fmt.Errorf("%w: timestamp %v outside ±%v", ErrProxyAuth, d, a.skew)
	}
	return ip, nil
}

// sign computes the header signature over IP ∥ timestamp.
func (a *ProxyAuth) sign(ip, ts string) string {
	mac := hmac.New(sha256.New, a.key)
	mac.Write([]byte(proxyAuthMagic))
	mac.Write([]byte(ip))
	mac.Write([]byte{0})
	mac.Write([]byte(ts))
	return base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}
