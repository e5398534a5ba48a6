// Package httpmw integrates the framework with net/http, realizing the
// paper's Figure 1 over a standard request/response exchange:
//
//	client                          server
//	  | GET /resource  ──────────────▶ |  (1) request
//	  | ◀────── 428 + X-PoW-Challenge  |  (2,3,4) score → policy → puzzle
//	  |  …solve puzzle locally…        |  (5) solver
//	  | GET /resource + X-PoW-Solution▶|  (5,6) verify
//	  | ◀────────────── 200 resource   |  (7) response
//
// The server side is Middleware, a standard http.Handler wrapper; the
// client side is Transport, an http.RoundTripper that solves challenges
// transparently, so existing clients adopt the protocol by swapping their
// HTTP client's transport.
package httpmw

import (
	"net"
	"net/http"
)

// Protocol header and status constants.
const (
	// HeaderChallenge carries the base64url challenge token on a 428
	// response.
	HeaderChallenge = "X-PoW-Challenge"

	// HeaderDifficulty mirrors the challenge difficulty in plain decimal,
	// for human inspection and dashboards.
	HeaderDifficulty = "X-PoW-Difficulty"

	// HeaderSolution carries the solution token on the retried request.
	HeaderSolution = "X-PoW-Solution"

	// StatusChallenge is the response status demanding proof of work.
	// 428 Precondition Required is the closest standard semantic: the
	// request is acceptable only after the client satisfies a precondition.
	StatusChallenge = http.StatusPreconditionRequired
)

// Canonical forms of the protocol headers, for direct http.Header map
// access: Header.Get and Set canonicalize any other key, which allocates.
var (
	keyChallenge   = http.CanonicalHeaderKey(HeaderChallenge)
	keyDifficulty  = http.CanonicalHeaderKey(HeaderDifficulty)
	keySolution    = http.CanonicalHeaderKey(HeaderSolution)
	keyContentType = http.CanonicalHeaderKey("Content-Type")
)

// ClientIP extracts the client address from a request: the host part of
// RemoteAddr, or RemoteAddr verbatim when it carries no port. When
// trustHeader is non-empty and present, its value wins — for deployments
// behind a proxy that sets X-Real-IP or similar. Never trust such a header
// on a directly-exposed server: clients could choose their own binding.
func ClientIP(r *http.Request, trustHeader string) string {
	if trustHeader != "" {
		if v := r.Header.Get(trustHeader); v != "" {
			return v
		}
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
