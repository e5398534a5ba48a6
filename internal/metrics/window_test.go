package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestEWMADecayTable(t *testing.T) {
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Value() != 0 {
		t.Fatalf("fresh EWMA reads %v, want 0", e.Value())
	}
	// First sample seeds directly; then the alpha-0.5 decay walk.
	table := []struct{ in, want float64 }{
		{100, 100}, {100, 100}, {200, 150}, {200, 175}, {200, 187.5}, {0, 93.75},
	}
	for i, row := range table {
		e.Observe(row.in)
		if got := e.Value(); got != row.want {
			t.Fatalf("step %d: value = %v, want %v", i, got, row.want)
		}
	}
	e.Observe(math.NaN())
	if got := e.Value(); got != 93.75 {
		t.Fatalf("NaN sample changed the average to %v", got)
	}
	e.Reset()
	if e.Value() != 0 {
		t.Fatalf("reset EWMA reads %v", e.Value())
	}
	e.Observe(7)
	if e.Value() != 7 {
		t.Fatalf("post-reset seed = %v, want 7", e.Value())
	}
}

func TestEWMAValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewEWMA(alpha); err == nil {
			t.Fatalf("NewEWMA(%v) unexpectedly succeeded", alpha)
		}
	}
}

func TestWindowRotation(t *testing.T) {
	w, err := NewWindow(3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 0 || w.Quantile(0.5) != 0 {
		t.Fatalf("empty window not all-zero")
	}
	w.Push(1)
	w.Push(2)
	if w.Len() != 2 || w.Quantile(0) != 1 || w.Quantile(1) != 2 {
		t.Fatalf("partial window: len %d min %v max %v", w.Len(), w.Quantile(0), w.Quantile(1))
	}
	w.Push(3)
	w.Push(10) // rotates the 1 out
	if w.Len() != 3 || w.Quantile(0) != 2 || w.Quantile(1) != 10 {
		t.Fatalf("rotated window: len %d min %v max %v", w.Len(), w.Quantile(0), w.Quantile(1))
	}
	w.Push(20)
	w.Push(30) // only {10, 20, 30} remain
	if w.Quantile(0) != 10 || w.Quantile(0.5) != 20 || w.Quantile(1) != 30 {
		t.Fatalf("fully rotated window: min %v median %v max %v", w.Quantile(0), w.Quantile(0.5), w.Quantile(1))
	}
}

func TestWindowQuantileBounds(t *testing.T) {
	w, err := NewWindow(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10} {
		w.Push(v)
	}
	table := []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	}
	for _, row := range table {
		if got := w.Quantile(row.q); got != row.want {
			t.Fatalf("q=%v: got %v, want %v", row.q, got, row.want)
		}
	}
	// Quantiles over the rotated window only see the newest samples.
	for i := 0; i < 10; i++ {
		w.Push(100)
	}
	if got := w.Quantile(0.5); got != 100 {
		t.Fatalf("rotated q50 = %v, want 100", got)
	}
}

func TestWindowValidation(t *testing.T) {
	if _, err := NewWindow(0); err == nil {
		t.Fatal("NewWindow(0) unexpectedly succeeded")
	}
}

// TestWindowConcurrentObservers hammers a window and an EWMA with
// concurrent writers and a reader under -race.
func TestWindowConcurrentObservers(t *testing.T) {
	w, err := NewWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEWMA(0.2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				w.Push(float64(g * i % 97))
				e.Observe(float64(i % 31))
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Len()
			_ = w.Quantile(0.9)
			_ = e.Value()
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
}
