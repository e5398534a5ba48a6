package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a hand-rolled encoder for the Prometheus text exposition
// format, version 0.0.4 — the format every Prometheus-compatible scraper
// speaks. The module has zero dependencies and keeps it that way: the
// format is three line shapes (# HELP, # TYPE, samples), and emitting it
// directly is smaller than any client library.

// Label is one exposition label pair. Values are escaped on write; names
// must match the Prometheus label-name charset and are sanitized like
// metric names.
type Label struct {
	Name  string
	Value string
}

// Metric family types in the exposition format.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// expoSample is one rendered sample line body (everything after the
// family name).
type expoSample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // pre-rendered "{k=\"v\",…}" or ""
	value  string
}

// expoFamily is one metric family: its metadata plus samples in add
// order.
type expoFamily struct {
	typ     string
	help    string
	samples []expoSample
}

// Exposition accumulates metric families and renders them in the text
// exposition format: families sorted by name, each emitted as one
// contiguous block of # HELP, # TYPE, and its samples — the grouping the
// format requires. Collect from as many sources as needed (per-pipeline
// counters and histograms, each contributing the same family under
// different labels), then WriteTo once.
//
// An Exposition is not safe for concurrent use; build one per scrape.
type Exposition struct {
	families map[string]*expoFamily
}

// NewExposition returns an empty collector.
func NewExposition() *Exposition {
	return &Exposition{families: make(map[string]*expoFamily)}
}

// family resolves (or creates) the named family. The first registration
// of a name fixes its type and help; later adds under a different type
// are a programming error worth failing loudly over.
func (e *Exposition) family(name, typ, help string) *expoFamily {
	f, ok := e.families[name]
	if !ok {
		f = &expoFamily{typ: typ, help: help}
		e.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: exposition family %q registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

// Add records one counter or gauge sample under the (sanitized) family
// name. The same family may be added repeatedly with different label
// sets — one per pipeline, say.
func (e *Exposition) Add(typ, name, help string, value float64, labels ...Label) {
	f := e.family(SanitizeMetricName(name), typ, help)
	f.samples = append(f.samples, expoSample{labels: renderLabels(labels, "", ""), value: formatValue(value)})
}

// AddHistogram records a full histogram family — cumulative _bucket
// series, _sum, and _count — from a snapshot-independent description:
// bounds[i] is the inclusive upper bound of cumulative[i], and an
// implicit +Inf bucket equal to count closes the series.
func (e *Exposition) AddHistogram(name, help string, bounds []float64, cumulative []uint64, sum float64, count uint64, labels ...Label) {
	f := e.family(SanitizeMetricName(name), TypeHistogram, help)
	for i, le := range bounds {
		f.samples = append(f.samples, expoSample{
			suffix: "_bucket",
			labels: renderLabels(labels, "le", formatValue(le)),
			value:  strconv.FormatUint(cumulative[i], 10),
		})
	}
	f.samples = append(f.samples,
		expoSample{suffix: "_bucket", labels: renderLabels(labels, "le", "+Inf"), value: strconv.FormatUint(count, 10)},
		expoSample{suffix: "_sum", labels: renderLabels(labels, "", ""), value: formatValue(sum)},
		expoSample{suffix: "_count", labels: renderLabels(labels, "", ""), value: strconv.FormatUint(count, 10)},
	)
}

// WriteTo renders every family, sorted by name, in the v0.0.4 text
// format.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(e.families))
	for name := range e.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := e.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(&b, "%s%s%s %s\n", name, s.suffix, s.labels, s.value)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// ExpositionInto contributes the histogram as one labeled sample set of
// the named family. Bucket i's lower bound is the upper bound of the
// cumulative count below it, so the first bound (the start) covers the
// underflow bucket and the implicit +Inf bucket covers the overflow
// bucket. Safe against concurrent Observe.
func (h *Histogram) ExpositionInto(e *Exposition, name, help string, labels ...Label) {
	s := h.read()
	cumulative := make([]uint64, len(s.counts))
	cum := s.under
	for i, c := range s.counts {
		cumulative[i] = cum
		cum += c
	}
	e.AddHistogram(name, help, s.bounds, cumulative, s.sum, s.total, labels...)
}

// SanitizeMetricName maps an internal metric name onto the exposition
// name charset [a-zA-Z_:][a-zA-Z0-9_:]*: dots and other invalid runes
// become underscores, and a leading digit gains an underscore prefix.
func SanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if ok {
			if b != nil {
				b = append(b, c)
			}
			continue
		}
		if b == nil {
			b = append(make([]byte, 0, len(name)+1), name[:i]...)
		}
		b = append(b, '_')
		if c >= '0' && c <= '9' { // leading digit: keep it after the underscore
			b = append(b, c)
		}
	}
	if b == nil {
		return name
	}
	return string(b)
}

// renderLabels renders a label set (plus one optional extra pair, used
// for histogram le labels) as {k="v",…}, escaping values. Label names are
// sanitized with the metric-name rules minus the colon.
func renderLabels(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	write := func(name, value string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strings.ReplaceAll(SanitizeMetricName(name), ":", "_"))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(value))
		b.WriteByte('"')
	}
	for _, l := range labels {
		write(l.Name, l.Value)
	}
	if extraName != "" {
		write(extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: shortest round-trip float form,
// with the format's spellings for infinities and NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value: backslash, quote, newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
