package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// EWMA is an exponentially weighted moving average with deterministic,
// caller-driven stepping: each Observe folds one sample in with the
// configured weight, so equal sample sequences always produce equal
// values — no wall-clock dependence, which is what lets the simulation
// engine drive it on a virtual clock and byte-compare reports.
//
// Writes are expected from one stepping goroutine (a feedback controller's
// tick); Value is safe to call concurrently from any goroutine (stats
// scrapes, load functions) — the state is a single atomic word.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64
	warm  atomic.Bool
}

// NewEWMA returns an average weighting each new sample by alpha in (0, 1];
// the first observation seeds the average directly.
func NewEWMA(alpha float64) (*EWMA, error) {
	if math.IsNaN(alpha) || alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("metrics: EWMA alpha %v outside (0, 1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds one sample into the average. NaN samples are ignored so a
// transient undefined rate cannot poison the estimate permanently.
func (e *EWMA) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if !e.warm.Load() {
		e.bits.Store(math.Float64bits(v))
		e.warm.Store(true)
		return
	}
	cur := math.Float64frombits(e.bits.Load())
	e.bits.Store(math.Float64bits(cur + e.alpha*(v-cur)))
}

// Value reports the current average (0 before the first observation).
func (e *EWMA) Value() float64 {
	if !e.warm.Load() {
		return 0
	}
	return math.Float64frombits(e.bits.Load())
}

// Reset discards all observations.
func (e *EWMA) Reset() {
	e.warm.Store(false)
	e.bits.Store(0)
}

// Window is a fixed-capacity ring buffer of float64 samples — the
// windowed-series primitive the feedback signal plane builds its
// sliding-window estimators on. Once full, each Push rotates the oldest
// sample out, so quantiles always cover the most recent capacity samples.
//
// Window is safe for concurrent use; quantiles sort into a scratch buffer
// owned by the window, so steady-state operation does not allocate.
type Window struct {
	mu      sync.Mutex
	buf     []float64
	scratch []float64
	next    int // ring write position
	n       int // samples held, ≤ len(buf)
}

// NewWindow returns a window holding the most recent capacity samples.
func NewWindow(capacity int) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("metrics: window capacity %d < 1", capacity)
	}
	return &Window{
		buf:     make([]float64, capacity),
		scratch: make([]float64, 0, capacity),
	}, nil
}

// Push appends one sample, rotating the oldest out when full.
func (w *Window) Push(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Len reports how many samples the window currently holds.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Quantile reports the q-th quantile (0 ≤ q ≤ 1) of the held samples by
// nearest-rank over a sorted copy, 0 when empty. The sort runs in the
// window's scratch buffer (insertion sort: windows are tens of samples),
// so no allocation happens after construction.
func (w *Window) Quantile(q float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 || math.IsNaN(q) {
		return 0
	}
	w.scratch = w.scratch[:0]
	for i := 0; i < w.n; i++ {
		w.scratch = append(w.scratch, w.at(i))
	}
	for i := 1; i < len(w.scratch); i++ {
		for j := i; j > 0 && w.scratch[j] < w.scratch[j-1]; j-- {
			w.scratch[j], w.scratch[j-1] = w.scratch[j-1], w.scratch[j]
		}
	}
	if q <= 0 {
		return w.scratch[0]
	}
	if q >= 1 {
		return w.scratch[len(w.scratch)-1]
	}
	idx := int(math.Ceil(q*float64(w.n))) - 1
	if idx < 0 {
		idx = 0
	}
	return w.scratch[idx]
}

// at reads the i-th oldest held sample; callers hold w.mu.
func (w *Window) at(i int) float64 {
	start := w.next - w.n
	if start < 0 {
		start += len(w.buf)
	}
	return w.buf[(start+i)%len(w.buf)]
}
