package httpmw

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"aipow/internal/puzzle"
)

// ErrNoRetryBody reports a challenged request whose body cannot be
// replayed (no GetBody); the caller must set Request.GetBody to use the
// transport with non-idempotent bodies.
var ErrNoRetryBody = errors.New("httpmw: challenged request has an unreplayable body")

// ErrTooManyChallenges reports that the server kept challenging beyond the
// transport's attempt budget.
var ErrTooManyChallenges = errors.New("httpmw: challenge retry budget exhausted")

// Transport is an http.RoundTripper that answers PoW challenges
// transparently: on a 428 response it solves the attached puzzle and
// retries the request with the solution header. Wrap any client with it:
//
//	client := &http.Client{Transport: httpmw.NewTransport()}
//
// Transport is safe for concurrent use.
type Transport struct {
	solver      *puzzle.Solver
	maxAttempts int // consecutive challenges answered for one request
	onSolve     func(puzzle.SolveStats)
}

// TransportOption customizes a Transport.
type TransportOption func(*Transport)

// WithSolveObserver registers a callback receiving the stats of every
// completed solve — the client-side cost accounting experiments use.
func WithSolveObserver(fn func(puzzle.SolveStats)) TransportOption {
	return func(t *Transport) { t.onSolve = fn }
}

// NewTransport returns a Transport with the options applied. It answers
// at most three consecutive challenges for one request.
func NewTransport(opts ...TransportOption) *Transport {
	t := &Transport{solver: puzzle.NewSolver(), maxAttempts: 3}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < t.maxAttempts; attempt++ {
		if resp.StatusCode != StatusChallenge {
			return resp, nil
		}
		token := resp.Header.Get(HeaderChallenge)
		if token == "" {
			// A 428 from something other than our middleware: pass through.
			return resp, nil
		}
		// The challenge response body is not needed; drain it so the
		// connection can be reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()

		var ch puzzle.Challenge
		if err := ch.UnmarshalText([]byte(token)); err != nil {
			return nil, fmt.Errorf("httpmw: server sent undecodable challenge: %w", err)
		}
		sol, stats, err := t.solver.Solve(req.Context(), ch)
		if err != nil {
			return nil, fmt.Errorf("httpmw: solve %d-difficult challenge: %w", ch.Difficulty, err)
		}
		if t.onSolve != nil {
			t.onSolve(stats)
		}
		solToken, err := sol.MarshalText()
		if err != nil {
			return nil, fmt.Errorf("httpmw: encode solution: %w", err)
		}

		retry, err := cloneForRetry(req)
		if err != nil {
			return nil, err
		}
		retry.Header.Set(HeaderSolution, string(solToken))
		resp, err = http.DefaultTransport.RoundTrip(retry)
		if err != nil {
			return nil, err
		}
	}
	if resp.StatusCode == StatusChallenge {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil, ErrTooManyChallenges
	}
	return resp, nil
}

// cloneForRetry duplicates a request, rewinding the body via GetBody when
// present.
func cloneForRetry(req *http.Request) (*http.Request, error) {
	clone := req.Clone(req.Context())
	if req.Body == nil || req.Body == http.NoBody {
		return clone, nil
	}
	if req.GetBody == nil {
		return nil, ErrNoRetryBody
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, fmt.Errorf("httpmw: rewind request body: %w", err)
	}
	clone.Body = body
	return clone, nil
}
