package httpmw

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/puzzle"
)

// challengeBody is the JSON payload of a 428 response. The header carries
// the authoritative token; the body is for human and tooling convenience.
// appendChallengeBody writes it without encoding/json, byte for byte as
// json.Encoder would.
type challengeBody struct {
	Challenge  string `json:"challenge"`
	Difficulty int    `json:"difficulty"`
	Message    string `json:"message"`
}

// msgRejected prefixes the message of a re-challenge after a failed
// redemption.
const msgRejected = "solution rejected"

// contentTypeJSON is the Content-Type of every JSON response.
const contentTypeJSON = "application/json"

// errorBody is the JSON payload of a rejection.
type errorBody struct {
	Error string `json:"error"`
}

// Router selects the framework that serves one request class — the seam
// between the middleware and the control plane's gatekeeper. Route must
// never return nil; path is the request path and tenant the value of the
// configured tenant header ("" when unset).
type Router interface {
	Route(path, tenant string) *core.Framework
}

// Middleware protects an http.Handler with a framework — one fixed
// pipeline, or per-route pipelines via a Router. Construct with
// NewMiddleware or NewRoutedMiddleware.
type Middleware struct {
	next         http.Handler
	fw           *core.Framework // single-pipeline mode; nil when routed
	router       Router          // per-route mode; nil when single
	tenantHeader string
	trustHeader  string
	now          func() time.Time
	tokens       *tokenSigner
	tokenTTL     time.Duration
}

// MiddlewareOption customizes the middleware.
type MiddlewareOption func(*Middleware)

// WithTrustedIPHeader makes the middleware take the client IP from the
// given header (e.g. "X-Real-IP") instead of RemoteAddr. Only safe behind
// a proxy that always sets it.
func WithTrustedIPHeader(name string) MiddlewareOption {
	return func(m *Middleware) { m.trustHeader = name }
}

// WithTenantHeader names the header whose value is passed to the Router
// as the tenant key (e.g. "X-Tenant"). Only meaningful with
// NewRoutedMiddleware; only safe when a trusted proxy controls the
// header, since clients could otherwise choose their pipeline.
func WithTenantHeader(name string) MiddlewareOption {
	return func(m *Middleware) { m.tenantHeader = name }
}

// WithMiddlewareClock injects the middleware's time source, for tests.
func WithMiddlewareClock(now func() time.Time) MiddlewareOption {
	return func(m *Middleware) { m.now = now }
}

// WithSessionTokens enables amortized solving: after one successful puzzle
// redemption the client receives an X-PoW-Token valid for ttl, and
// token-bearing requests skip puzzles until it expires. The key signs
// tokens (it may equal the framework key; the HMAC domains are separated)
// and must be at least 16 bytes.
func WithSessionTokens(key []byte, ttl time.Duration) MiddlewareOption {
	return func(m *Middleware) {
		m.tokens = newTokenSigner(key, time.Now)
		m.tokenTTL = ttl
	}
}

// NewMiddleware wraps next with the PoW protocol driven by fw.
func NewMiddleware(fw *core.Framework, next http.Handler, opts ...MiddlewareOption) (*Middleware, error) {
	if fw == nil {
		return nil, fmt.Errorf("httpmw: middleware requires a framework")
	}
	return newMiddleware(fw, nil, next, opts)
}

// NewRoutedMiddleware wraps next with the PoW protocol, selecting the
// serving framework per request through router (typically the control
// plane's gatekeeper): the request path and — with WithTenantHeader —
// the tenant key pick the pipeline that scores, prices, and verifies the
// request.
func NewRoutedMiddleware(router Router, next http.Handler, opts ...MiddlewareOption) (*Middleware, error) {
	if router == nil {
		return nil, fmt.Errorf("httpmw: routed middleware requires a router")
	}
	return newMiddleware(nil, router, next, opts)
}

func newMiddleware(fw *core.Framework, router Router, next http.Handler, opts []MiddlewareOption) (*Middleware, error) {
	if next == nil {
		return nil, fmt.Errorf("httpmw: middleware requires a handler to protect")
	}
	m := &Middleware{next: next, fw: fw, router: router, now: time.Now}
	for _, opt := range opts {
		opt(m)
	}
	// Header.Get canonicalizes its key on every call unless it already is.
	m.tenantHeader = http.CanonicalHeaderKey(m.tenantHeader)
	m.trustHeader = http.CanonicalHeaderKey(m.trustHeader)
	if m.tenantHeader != "" && m.router == nil {
		return nil, fmt.Errorf("httpmw: WithTenantHeader requires a routed middleware")
	}
	if m.tokens != nil && m.router != nil {
		// Tokens are bound to the client IP only, not to a pipeline: one
		// cheap solve on a lenient route would buy token pass-through on
		// every stricter route. Until tokens carry a pipeline scope,
		// refuse the combination rather than silently weaken routing.
		return nil, fmt.Errorf("httpmw: session tokens are not pipeline-scoped; WithSessionTokens cannot be combined with a routed middleware")
	}
	if m.tokens != nil {
		m.tokens.now = m.now
		if len(m.tokens.key) < 16 {
			return nil, fmt.Errorf("httpmw: session token key shorter than 16 bytes")
		}
		if m.tokenTTL <= 0 {
			return nil, fmt.Errorf("httpmw: non-positive session token TTL %v", m.tokenTTL)
		}
	}
	return m, nil
}

// framework resolves the pipeline serving r: the fixed framework in
// single-pipeline mode, the router's choice in routed mode.
func (m *Middleware) framework(r *http.Request) *core.Framework {
	if m.router == nil {
		return m.fw
	}
	tenant := ""
	if m.tenantHeader != "" {
		tenant = r.Header.Get(m.tenantHeader)
	}
	return m.router.Route(r.URL.Path, tenant)
}

// ServeHTTP implements http.Handler.
func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ip := ClientIP(r, m.trustHeader)
	// One routing decision per request: the same pipeline scores,
	// challenges, and verifies it even if a control-plane Apply swaps the
	// route table mid-flight.
	fw := m.framework(r)

	if m.tokens != nil {
		if tok := r.Header.Get(keyToken); tok != "" {
			if err := m.tokens.Validate(tok, ip); err == nil {
				m.observe(fw, r, ip, false)
				m.next.ServeHTTP(w, r)
				return
			}
			// Invalid/expired token: fall through to the puzzle flow; the
			// failed presentation is behavioral signal.
			m.observe(fw, r, ip, true)
		}
	}

	if token := r.Header.Get(keySolution); token != "" {
		m.redeem(fw, w, r, ip, token)
		return
	}
	m.challenge(fw, w, r, ip, "")
}

// challenge runs Decide and answers with a 428 (or passes a bypassed
// request through). extraMsg annotates re-challenges after a failed
// redemption.
func (m *Middleware) challenge(fw *core.Framework, w http.ResponseWriter, r *http.Request, ip, extraMsg string) {
	m.observe(fw, r, ip, false)
	dec, err := fw.Decide(core.RequestContext{IP: ip})
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "challenge issuance failed"})
		return
	}
	if dec.Bypassed {
		m.next.ServeHTTP(w, r)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, token, err := appendChallengeBody((*bp)[:0], &dec.Challenge, dec.Difficulty, extraMsg)
	*bp = body
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "challenge encoding failed"})
		return
	}
	// One backing array for the three header values, each capped so a
	// later Add on one key cannot overwrite its neighbor.
	v := make([]string, 3)
	v[0], v[1], v[2] = contentTypeJSON, token, strconv.Itoa(dec.Difficulty)
	h := w.Header()
	h[keyContentType] = v[0:1:1]
	h[keyChallenge] = v[1:2:2]
	h[keyDifficulty] = v[2:3:3]
	w.WriteHeader(StatusChallenge)
	// io.Writer may not retain p, so the buffer can go back to the pool.
	_, _ = w.Write(body)
}

// bodyPool recycles 428 body buffers; a body is at most ≈ 600 bytes.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// appendChallengeBody appends the 428 body — the bytes json.Encoder
// writes for a challengeBody, newline included — and returns it with the
// challenge token. Nothing in it needs JSON escaping: the token is
// base64url and extraMsg is "" or msgRejected.
func appendChallengeBody(b []byte, ch *puzzle.Challenge, difficulty int, extraMsg string) ([]byte, string, error) {
	b = append(b, `{"challenge":"`...)
	start := len(b)
	b, err := ch.AppendText(b)
	if err != nil {
		return b, "", err
	}
	token := string(b[start:])
	b = append(b, `","difficulty":`...)
	b = strconv.AppendInt(b, int64(difficulty), 10)
	b = append(b, `,"message":"`...)
	if extraMsg != "" {
		b = append(b, extraMsg...)
		b = append(b, "; "...)
	}
	b = append(b, "solve the "...)
	b = strconv.AppendInt(b, int64(difficulty), 10)
	b = append(b, "-difficult puzzle and retry with "+HeaderSolution+"\"}\n"...)
	return b, token, nil
}

// redeem verifies a presented solution and serves the protected resource on
// success. Invalid solutions get a fresh challenge (the paper's flow keeps
// clients in the loop rather than banning them outright — cost, not
// blocking, is the control).
func (m *Middleware) redeem(fw *core.Framework, w http.ResponseWriter, r *http.Request, ip, token string) {
	var sol puzzle.Solution
	if err := sol.UnmarshalText([]byte(token)); err != nil {
		m.observe(fw, r, ip, true)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed solution token"})
		return
	}
	if err := fw.Verify(sol, ip); err != nil {
		m.challenge(fw, w, r, ip, msgRejected)
		return
	}
	m.observe(fw, r, ip, false)
	if m.tokens != nil {
		w.Header()[keyToken] = []string{m.tokens.Mint(ip, m.tokenTTL)}
	}
	m.next.ServeHTTP(w, r)
}

// observe feeds the request into the framework's behavior tracker.
func (m *Middleware) observe(fw *core.Framework, r *http.Request, ip string, failed bool) {
	// Observe is best-effort: tracking failures must never block serving.
	_ = fw.Observe(features.RequestInfo{
		IP:     ip,
		Path:   r.URL.Path,
		At:     m.now(),
		Failed: failed,
	})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", contentTypeJSON)
	w.WriteHeader(status)
	// Encoding errors at this point mean the connection is gone; there is
	// nothing useful left to do with the request.
	_ = json.NewEncoder(w).Encode(v)
}
