package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"aipow"
	"aipow/bench/workload"
)

// load is one workload's traffic: prepare builds whatever it needs before
// the warm-up (pools, a full tracker), worker k then offers its share of
// the load for one phase and returns when the phase is over. Workers keep
// their position in the op stream across phases, so the measured window
// continues the stream the warm-up began.
type load interface {
	prepare() error
	worker(k int, ph phase, rec *recorder)
	// expectOps sizes a worker's latency buffer for a phase of length d.
	expectOps(d time.Duration) int
}

// ioGrace is how long past a phase's end a connection may still be
// waited on before the run is failed instead of hung.
const ioGrace = 10 * time.Second

// giveUp is how much unanswered open-loop load is tolerated: once a
// second's worth of arrivals is in flight the server has fallen hopelessly
// behind, and what is still unsent counts as failed.
const giveUp = time.Second

var solver = aipow.NewSolver()

// parseChallenge checks a challenge response: status 428, a token that
// parses, bound to the client it was issued to.
func parseChallenge(resp response, ip string) (aipow.Challenge, error) {
	var ch aipow.Challenge
	if resp.status != aipow.StatusChallenge {
		return ch, fmt.Errorf("status %d, want 428", resp.status)
	}
	if err := ch.UnmarshalText(resp.challenge); err != nil {
		return ch, fmt.Errorf("challenge token does not parse: %w", err)
	}
	if ch.Binding != ip {
		return ch, fmt.Errorf("challenge bound to %q, issued to %q", ch.Binding, ip)
	}
	return ch, nil
}

// solve finds a nonce and renders the solution token.
func solve(ch aipow.Challenge, rec *recorder) (string, error) {
	sol, stats, err := solver.Solve(context.Background(), ch)
	if err != nil {
		return "", fmt.Errorf("solve d=%d: %w", ch.Difficulty, err)
	}
	rec.solves++
	rec.hashes += stats.Attempts
	token, err := sol.MarshalText()
	return string(token), err
}

// token renders ch with an arbitrary nonce.
func tokenOf(ch aipow.Challenge, nonce uint64) string {
	text, _ := aipow.Solution{Challenge: ch, Nonce: nonce}.MarshalText() // cannot fail: ch came off the wire
	return string(text)
}

// httpLoad is what the four socket workloads share.
type httpLoad struct {
	d     *deployment
	cfg   config
	conns []*conn  // one per worker, to the serving (or admin) listener
	next  []uint64 // per-worker position in the op stream
}

func newHTTPLoad(d *deployment, cfg config, addr string) (httpLoad, error) {
	l := httpLoad{d: d, cfg: cfg, next: make([]uint64, cfg.nproc)}
	for k := 0; k < cfg.nproc; k++ {
		c, err := dial(addr)
		if err != nil {
			l.closeConns()
			return l, fmt.Errorf("bench: dial %s: %w", addr, err)
		}
		l.conns = append(l.conns, c)
		l.next[k] = uint64(k)
	}
	return l, nil
}

func (l *httpLoad) closeConns() {
	for _, c := range l.conns {
		c.close()
	}
}

// appendBatchItem appends one POST /batch item to a request body.
func appendBatchItem(b []byte, first bool, ip, path, solution string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, `{"ip":"`...)
	b = append(b, ip...)
	b = append(b, `","path":"`...)
	b = append(b, path...)
	if solution != "" {
		b = append(b, `","solution":"`...)
		b = append(b, solution...)
	}
	return append(b, `"}`...)
}

// batchResults is the POST /batch response envelope.
type batchResults struct {
	Results []aipow.HTTPBatchResult `json:"results"`
}

// trackerFill is how many distinct clients fill the tracker before a
// workload starts: its default capacity of 65 536 and a margin.
const trackerFill = 65536 + 4096

// fillIP is the i-th of them: the permutation read from its tail —
// addresses the measured streams, which walk it from the head, will not
// reach.
func fillIP(in *workload.Inputs, i int) string {
	return in.IPs[in.Perm[len(in.Perm)-1-i]]
}

// fillTracker brings the child's shared tracker to capacity through the
// batch door.
func fillTracker(d *deployment, admin *conn) error {
	body := make([]byte, 0, 64<<10)
	for sent := 0; sent < trackerFill; {
		body = append(body[:0], `{"requests":[`...)
		for j := 0; j < 1024; j++ {
			body = appendBatchItem(body, j == 0, fillIP(d.in, sent), workload.PathWeb, "")
			sent++
		}
		body = append(body, `]}`...)
		resp, err := admin.post("/batch", adminToken, body)
		if err != nil {
			return fmt.Errorf("bench: fill tracker: %w", err)
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("bench: fill tracker: status %d: %s", resp.status, resp.body)
		}
	}
	return nil
}

// ---- flood ----------------------------------------------------------------

// sentOp is one request the pacer has written and a reader has yet to see
// answered.
type sentOp struct {
	due, sent time.Time
	idx       int32 // client, as an index into Inputs.IPs
}

type floodLoad struct {
	httpLoad
	admin *conn
	// inflight[k] hands connection k's written requests to its reader, in
	// order; a zero sentOp ends a phase. It holds giveUp's worth of
	// arrivals: a pacer that finds it full is more than giveUp behind and
	// the run is already lost.
	inflight []chan sentOp
	// What the pacer left unsent when it had to stop, and why.
	unsent  uint64
	paceErr error
}

func (l *floodLoad) prepare() error {
	l.inflight = make([]chan sentOp, l.cfg.nproc)
	for k := range l.inflight {
		l.inflight[k] = make(chan sentOp, int(giveUp.Seconds()*float64(l.cfg.floodRate)))
	}
	return fillTracker(l.d, l.admin)
}

func (l *floodLoad) expectOps(d time.Duration) int {
	return int(d.Seconds()*float64(l.cfg.floodRate))/l.cfg.nproc + 16
}

// pace writes the whole arrival schedule: slot i goes out on connection
// i mod n at its due time whether or not earlier replies have come back —
// independent clients do not wait for each other — so a stall in the
// server delays replies, not arrivals, and every reply is timed from when
// its request was due.
func (l *floodLoad) pace(ph phase) {
	in, n := l.d.in, uint64(l.cfg.nproc)
	for _, c := range l.conns {
		c.deadline(ph.end.Add(ioGrace))
	}
	slots := uint64(ph.end.Sub(ph.start)) * uint64(l.cfg.floodRate) / uint64(time.Second)
	l.unsent, l.paceErr = 0, nil
	defer func() {
		for _, ch := range l.inflight {
			ch <- sentOp{}
		}
	}()
	var req []byte
	for slot := uint64(0); slot < slots; slot++ {
		due := ph.start.Add(workload.Due(slot, l.cfg.floodRate))
		waitUntil(due)
		k := slot % n
		idx := in.MixIP(l.next[0], false)
		l.next[0]++
		req = appendGet(req[:0], workload.PathWeb, in.IPs[idx], "")
		op := sentOp{due: due, sent: time.Now(), idx: idx}
		if _, err := l.conns[k].c.Write(req); err != nil {
			l.unsent, l.paceErr = slots-slot, fmt.Errorf("flood: write: %w", err)
			return
		}
		select {
		case l.inflight[k] <- op:
		default:
			l.unsent, l.paceErr = slots-slot, errors.New("flood: more than 1s of arrivals unanswered")
			return
		}
	}
}

// worker k reads connection k's replies in the order the pacer wrote the
// requests and checks each one.
func (l *floodLoad) worker(k int, _ phase, rec *recorder) {
	in, c := l.d.in, l.conns[k]
	broken := false
	for op := range l.inflight[k] {
		if op.due.IsZero() {
			break
		}
		rec.attempted++
		if broken {
			rec.failed++
			continue
		}
		resp, err := c.read()
		if err != nil {
			rec.fail(1, fmt.Errorf("flood: %w", err))
			broken = true
			continue
		}
		done := time.Now()
		rec.seen[pipeWeb].challenges++
		ch, err := parseChallenge(resp, in.IPs[op.idx])
		if err != nil {
			rec.fail(1, fmt.Errorf("flood: %w", err))
			continue
		}
		rec.late = append(rec.late, int64(op.sent.Sub(op.due)))
		rec.observe(op.due, done, 1)
		rec.priced(in, op.idx, ch.Difficulty)
	}
	// The sentinel is sent after the pacer's last write to these fields.
	if k == 0 && l.paceErr != nil {
		rec.attempted += l.unsent
		rec.fail(l.unsent, l.paceErr)
	}
}

// ---- redeem ---------------------------------------------------------------

type redeemLoad struct{ httpLoad }

func (l *redeemLoad) prepare() error { return nil }

func (l *redeemLoad) expectOps(d time.Duration) int { return int(d.Seconds()*20000) + 16 }

// exchange runs the paper's Figure 1 once for ip: request, challenge,
// solve, redeem. broken reports a transport error, after which the
// connection is unusable.
func exchange(c *conn, ip string, rec *recorder) (broken bool, err error) {
	web := &rec.seen[pipeWeb]
	resp, err := c.get(workload.PathWeb, ip, "")
	if err != nil {
		return true, err
	}
	web.challenges++
	ch, err := parseChallenge(resp, ip)
	if err != nil {
		return false, err
	}
	token, err := solve(ch, rec)
	if err != nil {
		return false, err
	}
	resp, err = c.get(workload.PathWeb, ip, token)
	if err != nil {
		return true, err
	}
	if resp.status != http.StatusOK {
		if resp.status == aipow.StatusChallenge {
			web.challenges++
			web.forged++ // the server counted a reject and re-challenged
		}
		return false, fmt.Errorf("solved token answered %d, want 200", resp.status)
	}
	web.passes++
	return false, nil
}

func (l *redeemLoad) worker(k int, ph phase, rec *recorder) {
	in, c, n := l.d.in, l.conns[k], uint64(l.cfg.nproc)
	c.deadline(ph.end.Add(ioGrace))
	for time.Now().Before(ph.end) {
		ip := in.IPs[in.HotIP(l.next[k])]
		l.next[k] += n
		t0 := time.Now()
		rec.attempted++
		if broken, err := exchange(c, ip, rec); err != nil {
			rec.fail(1, fmt.Errorf("redeem: %w", err))
			if broken {
				return
			}
			continue
		}
		rec.observe(t0, time.Now(), 1)
	}
}

// ---- forged ---------------------------------------------------------------

// forgedEntry is one reusable forged submission: failed attempts burn
// nothing server-side, so the same token is rejected every time.
type forgedEntry struct {
	path  string
	pipe  int
	ip    string // presented from
	token string
}

type forgedLoad struct {
	httpLoad
	pools [][][]forgedEntry // [worker][kind][entry]
}

func (l *forgedLoad) expectOps(d time.Duration) int { return int(d.Seconds()*20000) + 16 }

// prepare builds every worker's pools over its own connection, checking
// client-side that each entry is the forgery it claims to be.
func (l *forgedLoad) prepare() error {
	l.pools = make([][][]forgedEntry, l.cfg.nproc)
	errs := make([]error, l.cfg.nproc)
	var wg sync.WaitGroup
	for k := range l.pools {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			l.conns[k].deadline(time.Now().Add(time.Minute))
			l.pools[k], errs[k] = l.buildPools(k)
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (l *forgedLoad) buildPools(k int) ([][]forgedEntry, error) {
	in, c := l.d.in, l.conns[k]
	scratch := &recorder{}
	pools := make([][]forgedEntry, len(workload.ForgedKinds))
	for kind, name := range workload.ForgedKinds {
		path, pipe := workload.PathWeb, pipeWeb
		if name == workload.WrongNonceMH || name == workload.ReplayMH {
			path, pipe = workload.PathMH, pipeMH
		}
		for e := 0; e < l.cfg.pool; e++ {
			slot := uint64((k*len(workload.ForgedKinds)+kind)*l.cfg.pool + e)
			ip := in.IPs[in.Hot[slot%workload.HotSetSize]]
			resp, err := c.get(path, ip, "")
			if err != nil {
				return nil, err
			}
			ch, err := parseChallenge(resp, ip)
			if err != nil {
				return nil, fmt.Errorf("forged pool %s: %w", name, err)
			}
			entry := forgedEntry{path: path, pipe: pipe, ip: ip}
			switch name {
			case workload.BadMAC:
				// Rejected at the MAC, before the nonce is looked at.
				ch.Tag[0] ^= 0x80
				entry.token = tokenOf(ch, 0)
			case workload.WrongBinding:
				entry.token, err = solve(ch, scratch)
				entry.ip = in.IPs[in.Hot[(slot+workload.HotSetSize/2)%workload.HotSetSize]]
			case workload.WrongNonceMH:
				nonce := uint64(0)
				for ch.Meets(nonce) {
					nonce++
				}
				entry.token = tokenOf(ch, nonce)
			case workload.Replay, workload.ReplayMH:
				// Redeem once now; the entry replays that exchange's token.
				if entry.token, err = solve(ch, scratch); err != nil {
					return nil, err
				}
				if resp, err = c.get(path, ip, entry.token); err == nil && resp.status != http.StatusOK {
					err = fmt.Errorf("forged pool %s: first redemption answered %d", name, resp.status)
				}
			}
			if err != nil {
				return nil, err
			}
			pools[kind] = append(pools[kind], entry)
		}
	}
	return pools, nil
}

func (l *forgedLoad) worker(k int, ph phase, rec *recorder) {
	c, n := l.conns[k], uint64(len(workload.ForgedKinds))
	c.deadline(ph.end.Add(ioGrace))
	for time.Now().Before(ph.end) {
		i := l.next[k] / uint64(l.cfg.nproc) // this worker's own op count
		l.next[k] += uint64(l.cfg.nproc)
		pool := l.pools[k][i%n]
		e := pool[(i/n)%uint64(len(pool))]
		t0 := time.Now()
		rec.attempted++
		resp, err := c.get(e.path, e.ip, e.token)
		if err != nil {
			rec.fail(1, fmt.Errorf("forged %s: %w", workload.ForgedKinds[i%n], err))
			return
		}
		rec.seen[e.pipe].forged++
		if resp.status == http.StatusOK {
			rec.seen[e.pipe].forged--
			rec.seen[e.pipe].passes++
			rec.fail(1, fmt.Errorf("forged %s: answered 200", workload.ForgedKinds[i%n]))
			continue
		}
		rec.seen[e.pipe].challenges++
		if _, err := parseChallenge(resp, e.ip); err != nil {
			rec.fail(1, fmt.Errorf("forged %s: %w", workload.ForgedKinds[i%n], err))
			continue
		}
		rec.observe(t0, time.Now(), 1)
	}
}

// ---- batch ----------------------------------------------------------------

type pending struct {
	ip string
	ch aipow.Challenge
}

type batchLoad struct {
	httpLoad
	admin *conn
	prev  [][]pending // per worker: challenges of the previous response
	body  [][]byte
}

func (l *batchLoad) prepare() error {
	l.prev = make([][]pending, l.cfg.nproc)
	l.body = make([][]byte, l.cfg.nproc)
	return fillTracker(l.d, l.admin)
}

func (l *batchLoad) expectOps(d time.Duration) int { return int(d.Seconds()*2000) + 16 }

// worker posts bodies of 128 fresh decisions plus redemptions of the
// previous response's 128 challenges. An op is an item; latency is per
// POST, from first byte written to last byte read.
func (l *batchLoad) worker(k int, ph phase, rec *recorder) {
	in, c, n := l.d.in, l.conns[k], uint64(l.cfg.nproc)
	c.deadline(ph.end.Add(ioGrace))
	const fresh = workload.BatchItems / 2
	ips := make([]string, 0, workload.BatchItems)
	for time.Now().Before(ph.end) {
		body := append(l.body[k][:0], `{"requests":[`...)
		ips = ips[:0]
		for j := 0; j < fresh; j++ {
			ip := in.IPs[in.MixIP(l.next[k], true)]
			l.next[k] += n
			ips = append(ips, ip)
			body = appendBatchItem(body, j == 0, ip, workload.PathBulk, "")
		}
		redeemed := 0
		for _, p := range l.prev[k] {
			token, err := solve(p.ch, rec)
			if err != nil {
				rec.attempted++
				rec.fail(1, fmt.Errorf("batch: %w", err))
				continue
			}
			ips = append(ips, p.ip)
			body = appendBatchItem(body, false, p.ip, workload.PathBulk, token)
			redeemed++
		}
		body = append(body, `]}`...)
		l.body[k] = body
		l.prev[k] = l.prev[k][:0]

		items := uint64(len(ips))
		rec.attempted += items
		t0 := time.Now()
		resp, err := c.post("/batch", adminToken, body)
		done := time.Now()
		if err != nil {
			rec.fail(items, fmt.Errorf("batch: %w", err))
			return
		}
		var out batchResults
		if resp.status != http.StatusOK {
			rec.fail(items, fmt.Errorf("batch: status %d: %s", resp.status, resp.body))
			continue
		}
		if err := json.Unmarshal(resp.body, &out); err != nil || len(out.Results) != len(ips) {
			rec.fail(items, fmt.Errorf("batch: %d results for %d items (%v)", len(out.Results), len(ips), err))
			continue
		}
		failedBefore := rec.failed
		for j, res := range out.Results {
			switch {
			case j < fresh && res.Status == "challenge":
				rec.seen[pipeBulk].challenges++
				var ch aipow.Challenge
				if err := ch.UnmarshalText([]byte(res.Challenge)); err != nil || ch.Binding != ips[j] {
					rec.fail(1, fmt.Errorf("batch: bad challenge for %s: %v", ips[j], err))
					continue
				}
				l.prev[k] = append(l.prev[k], pending{ip: ips[j], ch: ch})
			case j >= fresh && res.Status == "pass":
				rec.seen[pipeBulk].passes++
			default:
				if res.Status == "challenge" {
					rec.seen[pipeBulk].challenges++
					rec.seen[pipeBulk].forged++
				}
				rec.fail(1, fmt.Errorf("batch: item %d answered %q (%s)", j, res.Status, res.Error))
			}
		}
		rec.observe(t0, done, items-(rec.failed-failedBefore))
	}
}

// ---- embedded -------------------------------------------------------------

// sink is the minimal http.ResponseWriter the embedded workload hands the
// middleware: it keeps the status and headers and drops the body.
type sink struct {
	h      http.Header
	status int
}

func (s *sink) Header() http.Header { return s.h }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return len(p), nil
}

// caller drives an http.Handler the way net/http would, minus the socket:
// one reusable request and sink per goroutine.
type caller struct {
	h   http.Handler
	req *http.Request
	w   sink
}

// Canonical header keys, so the request's header map can be written
// directly.
var (
	keyIP        = http.CanonicalHeaderKey(trustHeader)
	keySolution  = http.CanonicalHeaderKey(aipow.HeaderSolution)
	keyChallenge = http.CanonicalHeaderKey(aipow.HeaderChallenge)
)

func newCaller(h http.Handler, path string) *caller {
	req, _ := http.NewRequest(http.MethodGet, path, nil) // cannot fail: constant method and path
	req.RemoteAddr = "127.0.0.1:1"
	return &caller{h: h, req: req, w: sink{h: make(http.Header, 4)}}
}

// call serves one request for ip and returns the status and the challenge
// header (empty when absent).
func (c *caller) call(ip, solution string) (int, string) {
	clear(c.w.h)
	c.w.status = 0
	clear(c.req.Header)
	c.req.Header[keyIP] = []string{ip}
	if solution != "" {
		c.req.Header[keySolution] = []string{solution}
	}
	c.h.ServeHTTP(&c.w, c.req)
	if v := c.w.h[keyChallenge]; len(v) == 1 {
		return c.w.status, v[0]
	}
	return c.w.status, ""
}

// challengeOf checks an in-process challenge response like parseChallenge.
func challengeOf(status int, token, ip string) (aipow.Challenge, error) {
	return parseChallenge(response{status: status, challenge: []byte(token)}, ip)
}

type embeddedLoad struct {
	d    *deployment
	cfg  config
	ip   *inproc
	next []uint64
	// last is each goroutine's most recently redeemed token and its
	// client, the one a "replay" visit resubmits. The replay cache evicts
	// oldest-expiry first, so the newest redemption is the one it is sure
	// to still hold however many redemptions the window makes.
	last []forgedEntry
	// spans, when set, records one span per chunk of 256 ops: the
	// "tracing on" side of trace.overhead_ratio.
	spans *tracer
}

func newEmbeddedLoad(d *deployment, cfg config, ip *inproc) *embeddedLoad {
	l := &embeddedLoad{d: d, cfg: cfg, ip: ip, next: make([]uint64, cfg.nproc), last: make([]forgedEntry, cfg.nproc)}
	for k := range l.next {
		l.next[k] = uint64(k)
	}
	return l
}

// prepare fills the tracker like the socket workloads do, through the
// framework's own batch observe.
func (l *embeddedLoad) prepare() error {
	return fillTrackerInproc(l.d, l.ip)
}

func (l *embeddedLoad) expectOps(d time.Duration) int { return int(d.Seconds()*150000) + 16 }

// worker runs visits: an unsolved GET /, then — per the seeded stream —
// nothing, a solved redemption, or a forged submission. An op is one
// ServeHTTP call, timed on its own; solving happens between ops and shows
// up in CPU per op, not in latency.
func (l *embeddedLoad) worker(k int, ph phase, rec *recorder) {
	in, n := l.d.in, uint64(l.cfg.nproc)
	c := newCaller(l.ip.handler, workload.PathWeb)
	web := &rec.seen[pipeWeb]
	chunkOps, span := 0, -1
	var t0, done time.Time
	serve := func(ip, solution string) (int, string) {
		t0 = time.Now()
		status, token := c.call(ip, solution)
		done = time.Now()
		rec.attempted++
		chunkOps++
		return status, token
	}
	for time.Now().Before(ph.end) {
		if l.spans != nil && chunkOps == 0 {
			span = l.spans.begin("embedded.chunk", -1, int(l.next[k]))
		}
		v := in.Visit(l.next[k])
		l.next[k] += n
		ip := in.IPs[v.IP]

		status, token := serve(ip, "")
		web.challenges++
		ch, err := challengeOf(status, token, ip)
		if err != nil {
			rec.fail(1, fmt.Errorf("embedded: %w", err))
			continue
		}
		rec.observe(t0, done, 1)

		switch v.Action {
		case workload.ActRedeem:
			sol, err := solve(ch, rec)
			if err != nil {
				rec.fail(1, fmt.Errorf("embedded: %w", err))
				continue
			}
			if status, _ = serve(ip, sol); status != http.StatusOK {
				web.challenges++
				web.forged++
				rec.fail(1, fmt.Errorf("embedded: solved token answered %d", status))
				continue
			}
			rec.observe(t0, done, 1)
			web.passes++
			l.last[k] = forgedEntry{ip: ip, token: sol}
		case workload.ActReject:
			// bad_mac and wrong_binding are rejected before the nonce is
			// looked at, so an unsolved token costs the server exactly
			// what a solved one would and the generator nothing.
			e := forgedEntry{ip: ip}
			switch {
			case v.Kind == workload.Replay && l.last[k].token != "":
				e = l.last[k]
			case v.Kind == workload.WrongBinding:
				e.ip, e.token = in.IPs[v.Other], tokenOf(ch, 0)
			default:
				ch.Tag[0] ^= 0x80
				e.token = tokenOf(ch, 0)
			}
			if status, token = serve(e.ip, e.token); status == http.StatusOK {
				web.passes++
				rec.fail(1, fmt.Errorf("embedded: forged %s answered 200", v.Kind))
				continue
			}
			web.forged++
			web.challenges++
			if _, err := challengeOf(status, token, e.ip); err != nil {
				rec.fail(1, fmt.Errorf("embedded: forged %s: %w", v.Kind, err))
				continue
			}
			rec.observe(t0, done, 1)
		}
		if l.spans != nil && chunkOps >= chunkSize {
			l.spans.end(span)
			chunkOps = 0
		}
	}
	if l.spans != nil && chunkOps > 0 {
		l.spans.end(span)
	}
}

// fillTrackerInproc is fillTracker without the socket.
func fillTrackerInproc(d *deployment, ip *inproc) error {
	fw := ip.gk.Route(workload.PathWeb, "")
	now := time.Now()
	batch := make([]aipow.RequestInfo, 1024)
	for sent := 0; sent < trackerFill; {
		for j := range batch {
			batch[j] = aipow.RequestInfo{IP: fillIP(d.in, sent), Path: workload.PathWeb, At: now}
			sent++
		}
		if err := fw.ObserveBatch(batch); err != nil {
			return fmt.Errorf("bench: fill tracker: %w", err)
		}
	}
	return nil
}
