package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// chunkSize is how many consecutive ops one span covers. A clock read
// costs about what policy.Difficulty does, so timing single calls would
// measure the clock; a span around 256 calls of one layer keeps the two
// reads under 1 % of what they bracket. Per-op time is span ÷ chunkSize.
const chunkSize = 256

// span is one layer's work for one chunk. Spans of one chunk share its
// id; Parent is the ID of the span whose work includes this one's (-1 for
// a root), which is what self time is computed from.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Chunk  int    `json:"chunk_id"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
// The spans are recorded from the benchmark's own files, around its calls
// into each layer — the program under test carries none yet.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, chunk int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Chunk: chunk})
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// perOp returns, for every chunk that has a span called name, the span's
// duration divided by ops — the per-op nanoseconds of that layer in that
// chunk — keyed by chunk id.
func (t *tracer) perOp(name string, ops float64) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Chunk] += float64(s.End-s.Start) / ops
		}
	}
	return out
}

// selfPerOp returns, per chunk, name's span minus the spans whose Parent
// it is, divided by ops.
func (t *tracer) selfPerOp(name string, ops float64) map[int]float64 {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Chunk] += float64(s.End-s.Start-children[s.ID]) / ops
		}
	}
	return out
}

// medianOf is the median of a per-chunk series: one chunk that absorbed a
// GC cycle or a preemption does not move it.
func medianOf(perChunk map[int]float64) float64 {
	vals := make([]float64, 0, len(perChunk))
	for _, v := range perChunk {
		vals = append(vals, v)
	}
	return median(vals)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, buf, 0o644)
}
