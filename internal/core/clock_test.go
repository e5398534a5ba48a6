package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/obs"
	"aipow/internal/puzzle"
)

// stepClock steps forward by step on every read and counts its reads, so
// a test sees both how often a path reads the clock and whether two of
// its stages judged different instants.
type stepClock struct {
	ns    atomic.Int64
	step  int64
	reads atomic.Int64
}

func newStepClock(start time.Time, step time.Duration) *stepClock {
	c := &stepClock{step: int64(step)}
	c.ns.Store(start.UnixNano())
	return c
}

func (c *stepClock) Now() time.Time {
	c.reads.Add(1)
	return time.Unix(0, c.ns.Add(c.step)-c.step).UTC()
}

func (c *stepClock) Set(t time.Time) { c.ns.Store(t.UnixNano()) }

// readsDuring reports how many times fn read the clock.
func (c *stepClock) readsDuring(fn func()) int64 {
	before := c.reads.Load()
	fn()
	return c.reads.Load() - before
}

func solveOrFail(t *testing.T, ch puzzle.Challenge) puzzle.Solution {
	t.Helper()
	sol, _, err := puzzle.NewSolver().Solve(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestClockReadsPerRequest pins the clock budget of every front door:
// Decide reads the request's instant plus the ends of its two stages,
// Verify the instant plus the end of its span, and a batch the instant
// plus the end of its span at any size. Tracing every request and a
// tracker on the source and evidence paths add no reads.
func TestClockReadsPerRequest(t *testing.T) {
	clock := newStepClock(time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC), time.Microsecond)
	tr, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	src, err := features.NewCombined(newTestSource(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFramework(t, WithClock(clock.Now), WithTracker(tr), WithSource(src),
		WithObserveTrace(obs.NewTraceRing(1, 64)))

	check := func(name string, max int64, fn func()) {
		t.Helper()
		if got := clock.readsDuring(fn); got > max {
			t.Errorf("%s read the clock %d times, want at most %d", name, got, max)
		}
	}
	var dec Decision
	check("Decide", 3, func() {
		if dec, err = f.Decide(RequestContext{IP: "10.0.0.9"}); err != nil {
			t.Fatal(err)
		}
	})
	sol := solveOrFail(t, dec.Challenge)
	check("Verify (accept)", 2, func() {
		if err := f.Verify(sol, "10.0.0.9"); err != nil {
			t.Fatal(err)
		}
	})
	check("Verify (replay)", 2, func() {
		if err := f.Verify(sol, "10.0.0.9"); !errors.Is(err, puzzle.ErrReplayed) {
			t.Fatalf("replay = %v", err)
		}
	})
	for _, n := range []int{1, 64, 3*maxDecideChunk + 1} {
		reqs := make([]RequestContext, n)
		for i := range reqs {
			reqs[i].IP = fmt.Sprintf("10.1.%d.%d", i/250, i%250)
		}
		var decs []Decision
		check(fmt.Sprintf("DecideBatch(%d)", n), 2, func() {
			if decs, err = f.DecideBatch(reqs, nil); err != nil {
				t.Fatal(err)
			}
		})
		sols := make([]puzzle.Solution, n)
		bindings := make([]string, n)
		for i := range sols {
			sols[i] = puzzle.Solution{Challenge: decs[i].Challenge}
			bindings[i] = reqs[i].IP
		}
		check(fmt.Sprintf("VerifyBatch(%d)", n), 2, func() {
			if _, err := f.VerifyBatch(sols, bindings, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayAcrossExpiryEdge redeems a token, then replays it at instants
// straddling its expiry edge (IssuedAt + TTL + skew) under a clock that
// steps 1 ms per read. Each replay must be refused as a replay or as
// expired: freshness, the replay probe and the claim all judge the one
// instant Verify read, so the token can never pass freshness and then
// find its claim already swept as expired.
func TestReplayAcrossExpiryEdge(t *testing.T) {
	const skew = 2 * time.Second
	epoch := time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC)
	clock := newStepClock(epoch, time.Millisecond)
	f := newTestFramework(t, WithClock(clock.Now), WithTTL(time.Minute), WithClockSkew(skew))
	for k := -4; k <= 4; k++ {
		clock.Set(epoch)
		dec, err := f.Decide(RequestContext{IP: "10.0.0.1"})
		if err != nil {
			t.Fatal(err)
		}
		sol := solveOrFail(t, dec.Challenge)
		if err := f.Verify(sol, "10.0.0.1"); err != nil {
			t.Fatalf("first redemption: %v", err)
		}
		edge := dec.Challenge.ExpiresAt().Add(skew)
		clock.Set(edge.Add(time.Duration(k) * time.Millisecond))
		if err := f.Verify(sol, "10.0.0.1"); !errors.Is(err, puzzle.ErrReplayed) && !errors.Is(err, puzzle.ErrExpired) {
			t.Errorf("replay %d ms from the expiry edge = %v, want ErrReplayed or ErrExpired", k, err)
		}
	}
}
