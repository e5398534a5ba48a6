package httpmw

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"aipow/internal/core"
	"aipow/internal/features"
	"aipow/internal/puzzle"
)

// BatchRequest is one item of a batch decide/verify call: a request an
// upstream proxy or ingestion pipeline holds on behalf of a client. With
// a Solution it is a redemption attempt; without one it asks for a
// decision (bypass or challenge).
type BatchRequest struct {
	// IP identifies the client (required).
	IP string `json:"ip"`

	// Path is the requested path, fed to the behavior tracker and to
	// pipeline routing.
	Path string `json:"path,omitempty"`

	// Tenant is the routing tenant key.
	Tenant string `json:"tenant,omitempty"`

	// Solution is a solution token to redeem (the X-PoW-Solution value).
	Solution string `json:"solution,omitempty"`

	// Failed marks the request as an application-level failure (4xx) for
	// behavioral tracking.
	Failed bool `json:"failed,omitempty"`
}

// BatchResult is the per-item outcome, in request order.
type BatchResult struct {
	// Status is "pass" (serve the resource: verified solution or
	// bypassed), "challenge" (solve the attached puzzle first), or
	// "rejected" (malformed input).
	Status string `json:"status"`

	// Challenge and Difficulty carry the puzzle when Status is
	// "challenge".
	Challenge  string `json:"challenge,omitempty"`
	Difficulty int    `json:"difficulty,omitempty"`

	// Error explains a rejection or why a presented solution earned a
	// fresh challenge instead of a pass.
	Error string `json:"error,omitempty"`
}

// Batch result statuses.
const (
	BatchPass      = "pass"
	BatchChallenge = "challenge"
	BatchRejected  = "rejected"
)

// DefaultBatchLimit bounds how many items one batch call may carry.
const DefaultBatchLimit = 1024

// batchItemBytes is the body bytes allowed per item of the limit: a
// handler reads at most limit × batchItemBytes bytes of one body.
const batchItemBytes = 4 << 10

// BatchHandler is the batch front door: one POST carries many requests,
// and the framework's batch entry points (ObserveBatch, DecideBatch,
// VerifyBatch) amortize the per-request fixed costs across them. Items
// are grouped by their routed pipeline first, so each framework sees one
// batch. Semantics per item match the Middleware flow: a valid solution
// passes, an invalid one earns a fresh challenge, and everything is
// observed by the behavior tracker exactly once.
//
// The body is read whole, up to DefaultBatchLimit × 4 KiB, and decoded
// by a hand-written scanner that accepts exactly the documents
// encoding/json's Decoder accepts for the same types. A body over the
// byte bound, or a requests array over the item limit, is answered 413;
// decoding stops at the first item past the limit. The 200 body is
// appended straight into a pooled buffer, byte for byte what
// json.Encoder writes for it.
type BatchHandler struct {
	router  Router
	limit   int
	maxBody int64 // body byte bound: limit × batchItemBytes
}

// NewRoutedBatchHandler serves batch calls with per-item pipeline routing
// (path prefix and tenant key, like NewRoutedMiddleware).
func NewRoutedBatchHandler(router Router) (*BatchHandler, error) {
	if router == nil {
		return nil, fmt.Errorf("httpmw: routed batch handler requires a router")
	}
	return newBatchHandler(router, DefaultBatchLimit), nil
}

// newBatchHandler builds a handler that takes at most limit items, and
// limit × batchItemBytes body bytes, per call.
func newBatchHandler(router Router, limit int) *BatchHandler {
	return &BatchHandler{router: router, limit: limit, maxBody: int64(limit) * batchItemBytes}
}

// ServeHTTP implements http.Handler: POST a batch document, receive one
// result per request, in order.
func (h *BatchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a batch document"})
		return
	}
	sc := batchPool.Get().(*batchScratch)
	defer sc.release()

	// Size the buffer from Content-Length up front; the extra MinRead
	// bytes let ReadFrom see EOF without growing it again.
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n < maxPooledBytes {
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, h.maxBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("batch body exceeds %d bytes", h.maxBody)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed batch document: " + err.Error()})
		return
	}
	d := &sc.dec
	d.reset(sc.body.Bytes(), h.limit)
	n, err := d.decode()
	switch {
	case errors.Is(err, errBatchOverLimit):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("batch exceeds limit %d", h.limit)})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed batch document: " + err.Error()})
		return
	case n == 0:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	}
	items := d.items[:n]
	for i := range items {
		if len(items[i].ip) == 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("request %d without ip", i)})
			return
		}
	}

	sc.prepare(items)
	h.group(sc, items)
	for _, g := range sc.groups {
		if err := serveGroup(g.fw, sc, items, sc.order[g.lo:g.hi]); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
	}
	sc.out, err = sc.appendResults(sc.out[:0])
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header()[keyContentType] = []string{contentTypeJSON}
	w.WriteHeader(http.StatusOK)
	// io.Writer may not retain p, so the buffer can go back to the pool.
	_, _ = w.Write(sc.out)
}

// Item states, from decoding to the written result.
const (
	itemDecide    uint8 = iota // needs a decision
	itemVerify                 // carries a parsed solution
	itemMalformed              // solution token does not parse: "rejected"
	itemPass                   // verified, or bypassed: "pass"
	itemChallenge              // decided with a puzzle: "challenge"
)

// itemState is one item's progress through the batch.
type itemState struct {
	state    uint8
	rejected bool  // its solution failed verification: answer msgRejected
	dec      int32 // its decision in batchScratch.decs, when decided
}

// fwGroup is one framework's share of the batch: the items
// batchScratch.order[lo:hi].
type fwGroup struct {
	fw     *core.Framework
	lo, hi int
}

// batchScratch is everything one batch call needs, pooled across calls.
type batchScratch struct {
	body bytes.Buffer
	out  []byte
	dec  batchDecoder

	states []itemState
	ips    []string // the items' IPs; the tracker may keep them
	paths  []string // the items' paths; buffered evidence may keep them
	gid    []int    // each item's group
	order  []int    // item indices, grouped by framework, in request order
	groups []fwGroup

	sols     []puzzle.Solution
	solIdx   []int
	bindings []string
	verdicts []error
	obs      []features.RequestInfo
	dreqs    []core.RequestContext
	decIdx   []int
	decs     []core.Decision // every group's decisions, in one array
	ndecs    int
}

// maxPooledBytes caps the body and answer buffers a scratch may keep:
// a call that grew one past it drops the scratch, so one large body
// cannot pin its memory in the pool.
const maxPooledBytes = 1 << 20

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns sc to the pool unless a buffer outgrew maxPooledBytes
// or the item slices outgrew the default limit.
func (sc *batchScratch) release() {
	if sc.body.Cap() > maxPooledBytes || cap(sc.out) > maxPooledBytes ||
		cap(sc.dec.esc) > maxPooledBytes || cap(sc.dec.items) > DefaultBatchLimit {
		return
	}
	batchPool.Put(sc)
}

// prepare sizes the per-item slices and turns the items' IPs and paths
// into strings.
func (sc *batchScratch) prepare(items []batchItem) {
	n := len(items)
	sc.states = resize(sc.states, n)
	sc.ips = resize(sc.ips, n)
	sc.paths = resize(sc.paths, n)
	sc.decs = resize(sc.decs, n)
	sc.ndecs = 0
	for i := range items {
		sc.ips[i] = string(items[i].ip)
		sc.paths[i] = string(items[i].path)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// group partitions the batch by serving framework into sc.groups, in
// order of first appearance, keeping request order within each group.
func (h *BatchHandler) group(sc *batchScratch, items []batchItem) {
	n := len(items)
	sc.order = resize(sc.order, n)
	sc.groups = sc.groups[:0]
	// Route every item, counting each group's items in hi.
	sc.gid = resize(sc.gid, n)
	for i := range items {
		fw := h.router.Route(sc.paths[i], string(items[i].tenant))
		g := 0
		for g < len(sc.groups) && sc.groups[g].fw != fw {
			g++
		}
		if g == len(sc.groups) {
			sc.groups = append(sc.groups, fwGroup{fw: fw})
		}
		sc.groups[g].hi++
		sc.gid[i] = g
	}
	// Lay the groups out back to back, then place each item.
	off := 0
	for g := range sc.groups {
		count := sc.groups[g].hi
		sc.groups[g].lo, sc.groups[g].hi = off, off
		off += count
	}
	for i, g := range sc.gid {
		sc.order[sc.groups[g].hi] = i
		sc.groups[g].hi++
	}
}

// serveGroup runs one framework's share of the batch: observe everything,
// verify the presented solutions, then decide the rest — including items
// whose solution was rejected, which earn a fresh challenge exactly like
// the Middleware flow.
func serveGroup(fw *core.Framework, sc *batchScratch, items []batchItem, idx []int) error {
	// One clock read per group: every item is observed, verified and
	// decided at this instant.
	now := fw.Now()

	// One observation per item. A malformed solution token is a failed
	// presentation — behavioral signal, like the middleware's flow.
	sc.sols, sc.solIdx = sc.sols[:0], sc.solIdx[:0]
	for _, i := range idx {
		st := &sc.states[i]
		*st = itemState{state: itemDecide}
		if len(items[i].solution) == 0 {
			continue
		}
		sc.sols = append(sc.sols, puzzle.Solution{})
		if err := sc.sols[len(sc.sols)-1].UnmarshalText(items[i].solution); err != nil {
			sc.sols = sc.sols[:len(sc.sols)-1]
			st.state = itemMalformed
			continue
		}
		st.state = itemVerify
		sc.solIdx = append(sc.solIdx, i)
	}

	sc.obs = resize(sc.obs, len(idx))
	for k, i := range idx {
		sc.obs[k] = features.RequestInfo{
			IP:     sc.ips[i],
			Path:   sc.paths[i],
			At:     now,
			Failed: items[i].failed || sc.states[i].state == itemMalformed,
		}
	}
	// Best-effort, like Middleware.observe: tracking must not block serving.
	_ = fw.ObserveBatch(sc.obs)

	if len(sc.sols) > 0 {
		sc.bindings = resize(sc.bindings, len(sc.sols))
		for k, i := range sc.solIdx {
			sc.bindings[k] = sc.ips[i]
		}
		var err error
		sc.verdicts, err = fw.VerifyBatchAt(sc.sols, sc.bindings, sc.verdicts, now)
		if err != nil {
			return fmt.Errorf("verify batch: %w", err)
		}
		// Rejected solutions join the decide pass below, in request
		// order, so each still gets a fresh challenge.
		for k, i := range sc.solIdx {
			if sc.verdicts[k] == nil {
				sc.states[i].state = itemPass
			} else {
				sc.states[i] = itemState{state: itemDecide, rejected: true}
			}
		}
	}

	sc.dreqs, sc.decIdx = sc.dreqs[:0], sc.decIdx[:0]
	for _, i := range idx {
		if sc.states[i].state == itemDecide {
			sc.dreqs = append(sc.dreqs, core.RequestContext{IP: sc.ips[i]})
			sc.decIdx = append(sc.decIdx, i)
		}
	}
	if len(sc.dreqs) == 0 {
		return nil
	}
	// The decisions land in this group's stretch of sc.decs, which has
	// room for one per item of the batch.
	base := sc.ndecs
	decs, err := fw.DecideBatchAt(sc.dreqs, sc.decs[base:base+len(sc.dreqs)], now)
	if err != nil {
		return fmt.Errorf("decide batch: %w", err)
	}
	sc.ndecs += len(decs)
	for k, i := range sc.decIdx {
		st := &sc.states[i]
		st.dec = int32(base + k)
		if decs[k].Bypassed {
			st.state = itemPass
		} else {
			st.state = itemChallenge
		}
	}
	return nil
}

// appendResults appends the 200 body — the bytes json.Encoder writes for
// the results envelope, newline included. Nothing in it needs JSON
// escaping: statuses and errors are fixed ASCII texts, and a challenge is
// base64url.
func (sc *batchScratch) appendResults(b []byte) ([]byte, error) {
	b = append(b, `{"results":[`...)
	for i, st := range sc.states {
		if i > 0 {
			b = append(b, ',')
		}
		switch st.state {
		case itemMalformed:
			b = append(b, `{"status":"`+BatchRejected+`","error":"malformed solution token"}`...)
			continue
		case itemPass:
			b = append(b, `{"status":"`+BatchPass+`"`...)
		case itemChallenge:
			dec := &sc.decs[st.dec]
			b = append(b, `{"status":"`+BatchChallenge+`","challenge":"`...)
			var err error
			if b, err = dec.Challenge.AppendText(b); err != nil {
				return b, fmt.Errorf("challenge encoding failed: %w", err)
			}
			b = append(b, '"')
			if dec.Difficulty != 0 {
				b = append(b, `,"difficulty":`...)
				b = strconv.AppendInt(b, int64(dec.Difficulty), 10)
			}
		}
		if st.rejected {
			b = append(b, `,"error":"`+msgRejected+`"`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), nil
}
