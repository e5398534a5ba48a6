package features

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// applyEvent replays one randomized event either synchronously or through
// the write-back buffer, so the property test drives both trackers from
// one event stream.
func applyEvent(t *testing.T, tr *Tracker, buffered bool, limit int, ev wbEvent) {
	t.Helper()
	switch ev.kind {
	case wbObserve, wbObserveFailed:
		req := RequestInfo{IP: ev.ip, Path: ev.path, At: ev.at, Failed: ev.kind == wbObserveFailed}
		var err error
		if buffered {
			err = tr.ObserveBuffered(req, limit)
		} else {
			err = tr.Observe(req)
		}
		if err != nil {
			t.Fatalf("observe: %v", err)
		}
	case wbVerifyOK:
		if buffered {
			tr.RecordVerifyBuffered(ev.ip, int(ev.difficulty), true, ev.at, limit)
		} else {
			tr.RecordVerify(ev.ip, int(ev.difficulty), true, ev.at)
		}
	case wbVerifyFail:
		if buffered {
			tr.RecordVerifyBuffered(ev.ip, 0, false, ev.at, limit)
		} else {
			tr.RecordVerify(ev.ip, 0, false, ev.at)
		}
	}
}

// TestWriteBackEquivalence is the bounded-staleness property test: a
// random stream of observations and verification evidence applied through
// the write-back buffers, once flushed, must leave the tracker in exactly
// the state synchronous application produces — for every IP and every
// attribute. Buffering defers visibility; it never changes state.
func TestWriteBackEquivalence(t *testing.T) {
	opts := func() []TrackerOption {
		return []TrackerOption{
			WithWindow(30*time.Second, 6),
			WithEvidenceHalfLife(20 * time.Second),
			WithShards(4),
		}
	}
	for _, limit := range []int{2, 7, 64, 100000} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			sync, err := NewTracker(opts()...)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := NewTracker(opts()...)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewPCG(42, uint64(limit)))
			ips := make([]string, 17)
			for i := range ips {
				ips[i] = fmt.Sprintf("203.0.113.%d", i)
			}
			paths := []string{"/", "/a", "/b/c", "/login"}
			base := at(0)
			for i := 0; i < 5000; i++ {
				ev := wbEvent{
					ip: ips[rng.IntN(len(ips))],
					// Non-decreasing timestamps, as in live traffic.
					at: base.Add(time.Duration(i) * 7 * time.Millisecond),
				}
				switch rng.IntN(10) {
				case 0:
					ev.kind = wbVerifyOK
					ev.difficulty = int32(1 + rng.IntN(20))
				case 1:
					ev.kind = wbVerifyFail
				case 2:
					ev.kind = wbObserveFailed
					ev.path = paths[rng.IntN(len(paths))]
				default:
					ev.kind = wbObserve
					ev.path = paths[rng.IntN(len(paths))]
				}
				applyEvent(t, sync, false, limit, ev)
				applyEvent(t, buf, true, limit, ev)
			}

			buf.FlushWriteBack()
			if pending := buf.PendingWriteBack(); pending != 0 {
				t.Fatalf("%d events still pending after flush", pending)
			}
			now := base.Add(40 * time.Second)
			for _, ip := range ips {
				want := attrsOf(sync, ip, now)
				got := attrsOf(buf, ip, now)
				if len(got) != len(want) {
					t.Errorf("ip %s: buffered state %v, synchronous state %v", ip, got, want)
					continue
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok {
						t.Errorf("ip %s: attribute %s missing from buffered state", ip, k)
						continue
					}
					if k == AttrPathEntropy {
						// Entropy sums per-path terms in map iteration
						// order, so the last ULP wobbles on every read —
						// on a single tracker too. The counts it is
						// computed from are compared exactly above.
						if diff := math.Abs(g - w); diff > 1e-9*math.Max(1, math.Abs(w)) {
							t.Errorf("ip %s: %s = %v, want %v", ip, k, g, w)
						}
						continue
					}
					if g != w {
						t.Errorf("ip %s: %s = %v, want %v", ip, k, g, w)
					}
				}
			}
		})
	}
}

// TestWriteBackSizeBound pins the count dimension of the staleness bound:
// a shard's buffer flushes itself inline at limit events, so no more than
// limit-1 events per shard are ever invisible to summarize.
func TestWriteBackSizeBound(t *testing.T) {
	const limit = 8
	tr, err := NewTracker(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*limit; i++ {
		if err := tr.ObserveBuffered(RequestInfo{IP: "198.51.100.7", At: at(i)}, limit); err != nil {
			t.Fatal(err)
		}
		if pending := tr.PendingWriteBack(); pending >= limit {
			t.Fatalf("after %d events: %d pending, bound is %d", i+1, pending, limit-1)
		}
	}
}

// TestWriteBackDegradesToSynchronous pins the limit < 2 escape hatch: a
// degenerate limit routes straight to the synchronous write, leaving
// nothing buffered.
func TestWriteBackDegradesToSynchronous(t *testing.T) {
	tr, err := NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ObserveBuffered(RequestInfo{IP: "198.51.100.8", At: at(0)}, 1); err != nil {
		t.Fatal(err)
	}
	tr.RecordVerifyBuffered("198.51.100.8", 4, true, at(1), 0)
	if pending := tr.PendingWriteBack(); pending != 0 {
		t.Fatalf("%d events pending; degenerate limits must apply synchronously", pending)
	}
	if got := attrsOf(tr, "198.51.100.8", at(2))[AttrRequestRate]; got == 0 {
		t.Error("synchronous fallback did not reach the entry")
	}
}
