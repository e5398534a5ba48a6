package aipow

import (
	"errors"
	"net/http"

	"aipow/internal/httpmw"
)

// HTTP protocol constants, mirrored from the middleware package.
const (
	// HeaderChallenge carries the challenge token on a 428 response.
	HeaderChallenge = httpmw.HeaderChallenge

	// HeaderSolution carries the solution token on the retried request.
	HeaderSolution = httpmw.HeaderSolution

	// StatusChallenge is 428 Precondition Required.
	StatusChallenge = httpmw.StatusChallenge

	// HeaderProxyIP carries the client IP an authenticated proxy is
	// acting for on a signed batch request.
	HeaderProxyIP = httpmw.HeaderProxyIP

	// HeaderProxyTimestamp is the proxy signature's signing time.
	HeaderProxyTimestamp = httpmw.HeaderProxyTimestamp

	// HeaderProxySignature authenticates the proxy's (IP, timestamp)
	// pair; see ProxyAuth.
	HeaderProxySignature = httpmw.HeaderProxySignature
)

// HTTPMiddlewareOption configures NewHTTPMiddleware.
type HTTPMiddlewareOption = httpmw.MiddlewareOption

// WithTrustedIPHeader takes the client IP from a proxy-set header instead
// of the socket address. Only safe behind a trusted proxy.
func WithTrustedIPHeader(name string) HTTPMiddlewareOption {
	return httpmw.WithTrustedIPHeader(name)
}

// WithTenantHeader names the header whose value selects the tenant's
// pipeline in a routed middleware (only safe behind a trusted proxy that
// controls the header). A single-framework door has one route, so it
// ignores the header.
func WithTenantHeader(name string) HTTPMiddlewareOption {
	return httpmw.WithTenantHeader(name)
}

// NewHTTPMiddleware wraps next with the PoW challenge protocol driven by
// the framework: unchallenged requests receive 428 + X-PoW-Challenge;
// requests carrying a valid X-PoW-Solution reach next. It is the routed
// middleware over one route that maps every request onto fw.
func NewHTTPMiddleware(fw *Framework, next http.Handler, opts ...HTTPMiddlewareOption) (http.Handler, error) {
	if fw == nil {
		return nil, errors.New("aipow: HTTP middleware requires a framework")
	}
	return NewRoutedHTTPMiddleware(oneRoute{fw}, next, opts...)
}

// HTTPRouter selects the framework serving one request class; the
// control plane's Gatekeeper implements it.
type HTTPRouter = httpmw.Router

// oneRoute is the route table of a single-framework door: every path and
// tenant maps onto fw.
type oneRoute struct{ fw *Framework }

// Route implements HTTPRouter.
func (r oneRoute) Route(string, string) *Framework { return r.fw }

// NewRoutedHTTPMiddleware wraps next with the PoW challenge protocol,
// selecting the serving pipeline per request through router — typically
// a Gatekeeper, so path prefixes and (with WithTenantHeader) tenant keys
// map onto independently tuned, hot-swappable pipelines.
func NewRoutedHTTPMiddleware(router HTTPRouter, next http.Handler, opts ...HTTPMiddlewareOption) (http.Handler, error) {
	m, err := httpmw.NewRoutedMiddleware(router, next, opts...)
	if err != nil {
		return nil, err // not m: a nil *Middleware is a non-nil http.Handler
	}
	return m, nil
}

// HTTPBatchRequest is one item of a batch decide/verify call.
type HTTPBatchRequest = httpmw.BatchRequest

// HTTPBatchResult is the per-item outcome of a batch call.
type HTTPBatchResult = httpmw.BatchResult

// NewHTTPBatchHandler serves batch decide/verify calls against one
// framework: one POST carries many requests and the framework's batch
// entry points amortize the fixed costs across them. A call carries at
// most 1 024 items and 4 KiB of body per item. The handler trusts the
// caller-supplied client IPs — expose it only to trusted proxies.
func NewHTTPBatchHandler(fw *Framework) (http.Handler, error) {
	if fw == nil {
		return nil, errors.New("aipow: HTTP batch handler requires a framework")
	}
	return NewRoutedHTTPBatchHandler(oneRoute{fw})
}

// NewRoutedHTTPBatchHandler is NewHTTPBatchHandler with per-item pipeline
// routing through router (typically a Gatekeeper).
func NewRoutedHTTPBatchHandler(router HTTPRouter) (http.Handler, error) {
	h, err := httpmw.NewRoutedBatchHandler(router)
	if err != nil {
		return nil, err // not h: a nil *BatchHandler is a non-nil http.Handler
	}
	return h, nil
}

// ProxyAuth signs and verifies the batch proxy-authentication headers:
// an upstream proxy proves fleet membership per request by signing the
// client IP it fronts plus a timestamp with a key derived from the
// deployment's root key, so POST /batch does not require sharing the
// admin bearer token with the proxy tier.
type ProxyAuth = httpmw.ProxyAuth

// NewProxyAuth builds a proxy-header signer/verifier over a derived key
// (see DeriveProxyAuthKey). A signed timestamp is accepted within two
// minutes of the verifier's wall clock.
func NewProxyAuth(key []byte) (*ProxyAuth, error) {
	return httpmw.NewProxyAuth(key)
}

// DeriveProxyAuthKey derives the proxy-auth signing key from a
// deployment's root HMAC key; both the proxy tier and every verifying
// node derive the same key without the root key ever traveling.
func DeriveProxyAuthKey(root []byte) []byte {
	return httpmw.DeriveProxyAuthKey(root)
}

// HTTPTransportOption configures NewHTTPTransport.
type HTTPTransportOption = httpmw.TransportOption

// WithSolveObserver receives the stats of every completed solve.
func WithSolveObserver(fn func(SolveStats)) HTTPTransportOption {
	return httpmw.WithSolveObserver(fn)
}

// NewHTTPTransport returns an http.RoundTripper that answers PoW
// challenges transparently. Use it as any client's Transport:
//
//	client := &http.Client{Transport: aipow.NewHTTPTransport()}
func NewHTTPTransport(opts ...HTTPTransportOption) http.RoundTripper {
	return httpmw.NewTransport(opts...)
}
