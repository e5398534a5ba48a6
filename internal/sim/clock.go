package sim

import (
	"sync/atomic"
	"time"
)

// Clock is a manually-advanced time source for simulated runs: the engine
// (or a test) sets the time, and everything built on the framework's
// WithClock hook — challenge TTLs, tracker windows, replay sweeps — moves
// in simulated time with no wall-clock dependence.
//
// Reads are a single atomic load, so a Clock can sit on the serving hot
// path of a framework being driven concurrently. The zero value reads as
// the Unix epoch; construct with NewClock.
type Clock struct {
	// ns holds the current time as nanoseconds since the Unix epoch. The
	// monotonic reading is deliberately dropped: simulated time must
	// compare and subtract exactly, and survive round-trips through
	// serialized state.
	ns atomic.Int64
}

// NewClock returns a clock reading start.
func NewClock(start time.Time) *Clock {
	c := &Clock{}
	c.ns.Store(start.UnixNano())
	return c
}

// Now reports the current simulated time. The method value c.Now is a
// `func() time.Time` and plugs directly into core.WithClock.
func (c *Clock) Now() time.Time {
	return time.Unix(0, c.ns.Load()).UTC()
}

// Set jumps the clock to t. It never moves backward: simulated components
// (TTL checks, sliding windows) assume monotonic time.
func (c *Clock) Set(t time.Time) {
	target := t.UnixNano()
	for {
		cur := c.ns.Load()
		if target <= cur || c.ns.CompareAndSwap(cur, target) {
			return
		}
	}
}

// Advance moves the clock forward by d (negative d is ignored) and reports
// the new time.
func (c *Clock) Advance(d time.Duration) time.Time {
	if d > 0 {
		c.ns.Add(int64(d))
	}
	return c.Now()
}

// Epoch is the canonical simulated-time origin scenarios start from: the
// source paper's submission date. Any fixed instant works; fixing one keeps reports and golden files stable.
func Epoch() time.Time { return time.Date(2022, 3, 21, 0, 0, 0, 0, time.UTC) }
