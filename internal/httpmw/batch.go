package httpmw

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

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

	// Path is the requested path, fed to the behavior tracker and — in
	// routed mode — to pipeline routing.
	Path string `json:"path,omitempty"`

	// Tenant is the routing tenant key (routed mode only).
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

// batchRequestBody and batchResultBody are the endpoint's JSON envelopes.
type batchRequestBody struct {
	Requests []BatchRequest `json:"requests"`
}

type batchResultBody struct {
	Results []BatchResult `json:"results"`
}

// Batch result statuses.
const (
	BatchPass      = "pass"
	BatchChallenge = "challenge"
	BatchRejected  = "rejected"
)

// DefaultBatchLimit bounds how many items one batch call may carry.
const DefaultBatchLimit = 1024

// BatchHandler is the batch front door: one POST carries many requests,
// and the framework's batch entry points (ObserveBatch, DecideBatch,
// VerifyBatch) amortize the per-request fixed costs across them. In
// routed mode items are grouped by their routed pipeline first, so each
// framework sees one batch. Semantics per item match the Middleware flow:
// a valid solution passes, an invalid one earns a fresh challenge, and
// everything is observed by the behavior tracker exactly once.
type BatchHandler struct {
	fw     *core.Framework // single-pipeline mode; nil when routed
	router Router          // per-route mode; nil when single
	limit  int
}

// BatchOption customizes a BatchHandler.
type BatchOption func(*BatchHandler)

// WithBatchLimit bounds the items per call (default DefaultBatchLimit).
func WithBatchLimit(n int) BatchOption {
	return func(h *BatchHandler) { h.limit = n }
}

// NewBatchHandler serves batch decide/verify calls against one fixed
// framework.
func NewBatchHandler(fw *core.Framework, opts ...BatchOption) (*BatchHandler, error) {
	if fw == nil {
		return nil, fmt.Errorf("httpmw: batch handler requires a framework")
	}
	return newBatchHandler(fw, nil, opts)
}

// NewRoutedBatchHandler serves batch calls with per-item pipeline routing
// (path prefix and tenant key, like NewRoutedMiddleware).
func NewRoutedBatchHandler(router Router, opts ...BatchOption) (*BatchHandler, error) {
	if router == nil {
		return nil, fmt.Errorf("httpmw: routed batch handler requires a router")
	}
	return newBatchHandler(nil, router, opts)
}

func newBatchHandler(fw *core.Framework, router Router, opts []BatchOption) (*BatchHandler, error) {
	h := &BatchHandler{fw: fw, router: router, limit: DefaultBatchLimit}
	for _, opt := range opts {
		opt(h)
	}
	if h.limit <= 0 {
		return nil, fmt.Errorf("httpmw: non-positive batch limit %d", h.limit)
	}
	return h, nil
}

// ServeHTTP implements http.Handler: POST a batchRequestBody, receive a
// batchResultBody with one result per request, in order.
func (h *BatchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST a batch document"})
		return
	}
	var body batchRequestBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed batch document: " + err.Error()})
		return
	}
	switch {
	case len(body.Requests) == 0:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch"})
		return
	case len(body.Requests) > h.limit:
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(body.Requests), h.limit)})
		return
	}
	for i := range body.Requests {
		if body.Requests[i].IP == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("request %d without ip", i)})
			return
		}
	}

	results := make([]BatchResult, len(body.Requests))
	for _, group := range h.group(body.Requests) {
		if err := h.serveGroup(group.fw, body.Requests, group.idx, results); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
	}
	writeJSON(w, http.StatusOK, batchResultBody{Results: results})
}

// fwGroup is the index set of one framework's items.
type fwGroup struct {
	fw  *core.Framework
	idx []int
}

// group partitions the batch by serving framework (a single group in
// single-pipeline mode), preserving request order within each group.
func (h *BatchHandler) group(reqs []BatchRequest) []fwGroup {
	if h.router == nil {
		idx := make([]int, len(reqs))
		for i := range idx {
			idx[i] = i
		}
		return []fwGroup{{fw: h.fw, idx: idx}}
	}
	var groups []fwGroup
	byFW := make(map[*core.Framework]int)
	for i := range reqs {
		fw := h.router.Route(reqs[i].Path, reqs[i].Tenant)
		g, ok := byFW[fw]
		if !ok {
			g = len(groups)
			byFW[fw] = g
			groups = append(groups, fwGroup{fw: fw})
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

// serveGroup runs one framework's share of the batch: observe everything,
// verify the presented solutions, then decide the rest — including items
// whose solution was rejected, which earn a fresh challenge exactly like
// the Middleware flow.
func (h *BatchHandler) serveGroup(fw *core.Framework, reqs []BatchRequest, idx []int, results []BatchResult) error {
	now := time.Now()

	// One observation per item. A malformed solution token is a failed
	// presentation — behavioral signal, like the middleware's flow.
	sols := make([]puzzle.Solution, 0, len(idx))
	solIdx := make([]int, 0, len(idx))
	malformed := make(map[int]bool)
	for _, i := range idx {
		if reqs[i].Solution == "" {
			continue
		}
		var sol puzzle.Solution
		if err := sol.UnmarshalText([]byte(reqs[i].Solution)); err != nil {
			malformed[i] = true
			results[i] = BatchResult{Status: BatchRejected, Error: "malformed solution token"}
			continue
		}
		sols = append(sols, sol)
		solIdx = append(solIdx, i)
	}

	obs := make([]features.RequestInfo, len(idx))
	for k, i := range idx {
		obs[k] = features.RequestInfo{
			IP:     reqs[i].IP,
			Path:   reqs[i].Path,
			At:     now,
			Failed: reqs[i].Failed || malformed[i],
		}
	}
	// Best-effort, like Middleware.observe: tracking must not block serving.
	_ = fw.ObserveBatch(obs)

	var decIdx []int // items needing a decision, in request order
	for _, i := range idx {
		if reqs[i].Solution == "" {
			decIdx = append(decIdx, i)
		}
	}
	if len(sols) > 0 {
		bindings := make([]string, len(sols))
		for k, i := range solIdx {
			bindings[k] = reqs[i].IP
		}
		verdicts, err := fw.VerifyBatch(sols, bindings, nil)
		if err != nil {
			return fmt.Errorf("verify batch: %w", err)
		}
		// Rejected solutions fold into the decide pass below, restoring
		// request order so each still gets a fresh challenge.
		rejected := make(map[int]bool)
		for k, i := range solIdx {
			if verdicts[k] == nil {
				results[i] = BatchResult{Status: BatchPass}
			} else {
				rejected[i] = true
			}
		}
		if len(rejected) > 0 {
			merged := decIdx[:0:0]
			for _, i := range idx {
				if rejected[i] || (reqs[i].Solution == "" && !malformed[i]) {
					merged = append(merged, i)
				}
			}
			decIdx = merged
		}
	}
	if len(decIdx) == 0 {
		return nil
	}

	dreqs := make([]core.RequestContext, len(decIdx))
	for k, i := range decIdx {
		dreqs[k] = core.RequestContext{IP: reqs[i].IP}
	}
	decs, err := fw.DecideBatch(dreqs, nil)
	if err != nil {
		return fmt.Errorf("decide batch: %w", err)
	}
	var scratch []byte // token encoding, reused across the group
	for k, i := range decIdx {
		rejectedMsg := ""
		if reqs[i].Solution != "" {
			rejectedMsg = msgRejected
		}
		if decs[k].Bypassed {
			results[i] = BatchResult{Status: BatchPass, Error: rejectedMsg}
			continue
		}
		scratch, err = decs[k].Challenge.AppendText(scratch[:0])
		if err != nil {
			return fmt.Errorf("challenge encoding failed: %w", err)
		}
		results[i] = BatchResult{
			Status:     BatchChallenge,
			Challenge:  string(scratch),
			Difficulty: decs[k].Difficulty,
			Error:      rejectedMsg,
		}
	}
	return nil
}
