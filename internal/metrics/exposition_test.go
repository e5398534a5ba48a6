package metrics

import (
	"math"
	"strings"
	"testing"
)

func expositionString(t *testing.T, e *Exposition) string {
	t.Helper()
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestExpositionGolden(t *testing.T) {
	e := NewExposition()
	e.Add(TypeCounter, "pow.decide_total", "counter pow.decide_total", 42, Label{"pipeline", "edge"})
	e.Add(TypeCounter, "pow.decide_total", "counter pow.decide_total", 7, Label{"pipeline", "api"})
	e.Add(TypeGauge, "pow.adapt_level", "gauge pow.adapt_level", 2, Label{"pipeline", "edge"})

	want := strings.Join([]string{
		`# HELP pow_adapt_level gauge pow.adapt_level`,
		`# TYPE pow_adapt_level gauge`,
		`pow_adapt_level{pipeline="edge"} 2`,
		`# HELP pow_decide_total counter pow.decide_total`,
		`# TYPE pow_decide_total counter`,
		`pow_decide_total{pipeline="edge"} 42`,
		`pow_decide_total{pipeline="api"} 7`,
		``,
	}, "\n")
	got := expositionString(t, e)
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition([]byte(got)); err != nil {
		t.Errorf("golden output fails validation: %v", err)
	}
}

func TestExpositionHistogramGolden(t *testing.T) {
	h := NewHistogram(1, 2, 3) // bounds 1,2,4,8 + overflow
	for _, v := range []float64{0.5, 1.5, 3, 3, 10, 100} {
		h.Observe(v)
	}
	e := NewExposition()
	h.ExpositionInto(e, "lat_ms", "latency", Label{"pipeline", "edge"})
	want := strings.Join([]string{
		`# HELP lat_ms latency`,
		`# TYPE lat_ms histogram`,
		`lat_ms_bucket{pipeline="edge",le="1"} 1`,
		`lat_ms_bucket{pipeline="edge",le="2"} 2`,
		`lat_ms_bucket{pipeline="edge",le="4"} 4`,
		`lat_ms_bucket{pipeline="edge",le="8"} 4`,
		`lat_ms_bucket{pipeline="edge",le="+Inf"} 6`,
		`lat_ms_sum{pipeline="edge"} 118`,
		`lat_ms_count{pipeline="edge"} 6`,
		``,
	}, "\n")
	got := expositionString(t, e)
	if got != want {
		t.Errorf("histogram exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition([]byte(got)); err != nil {
		t.Errorf("histogram golden fails validation: %v", err)
	}
}

func TestExpositionEscaping(t *testing.T) {
	e := NewExposition()
	e.Add(TypeGauge, "g", "help with \\ and\nnewline", 1, Label{"path", "a\\b\"c\nd"})
	got := expositionString(t, e)
	if !strings.Contains(got, `# HELP g help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `g{path="a\\b\"c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
	if err := ValidateExposition([]byte(got)); err != nil {
		t.Errorf("escaped output fails validation: %v", err)
	}
}

func TestExpositionTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge family conflict")
		}
	}()
	e := NewExposition()
	e.Add(TypeCounter, "m", "h", 1)
	e.Add(TypeGauge, "m", "h", 2)
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"pow.decide.total": "pow_decide_total",
		"already_fine:ok":  "already_fine:ok",
		"9starts_digit":    "_9starts_digit",
		"has-dash and sp":  "has_dash_and_sp",
		"":                 "_",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// invalidExpositions are malformed inputs ValidateExposition must reject,
// keyed by the rule each breaks; they also seed FuzzValidateExposition.
var invalidExpositions = map[string]string{
	"sample before TYPE": "m 1\n",
	"duplicate TYPE":     "# TYPE m counter\n# TYPE m counter\nm 1\n",
	"HELP after TYPE":    "# TYPE m counter\n# HELP m h\nm 1\n",
	"interleaved families": strings.Join([]string{
		"# TYPE a counter", "# TYPE b counter", "a 1", "b 1", "a 2", "",
	}, "\n"),
	"bad metric name":    "# TYPE 1m counter\n1m 1\n",
	"bad label name":     "# TYPE m counter\nm{1x=\"v\"} 1\n",
	"bad escape":         "# TYPE m counter\nm{l=\"a\\t\"} 1\n",
	"unterminated label": "# TYPE m counter\nm{l=\"v} 1\n",
	"bad value":          "# TYPE m counter\nm{l=\"v\"} zebra\n",
	"non-monotone buckets": strings.Join([]string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 5`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="+Inf"} 5`,
		"h_sum 1", "h_count 5", "",
	}, "\n"),
	"missing +Inf": strings.Join([]string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 5`,
		"h_sum 1", "h_count 5", "",
	}, "\n"),
	"+Inf != count": strings.Join([]string{
		"# TYPE h histogram",
		`h_bucket{le="1"} 5`,
		`h_bucket{le="+Inf"} 5`,
		"h_sum 1", "h_count 7", "",
	}, "\n"),
	"bucket without le": strings.Join([]string{
		"# TYPE h histogram",
		`h_bucket{x="1"} 5`,
		`h_bucket{le="+Inf"} 5`,
		"h_sum 1", "h_count 5", "",
	}, "\n"),
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, input := range invalidExpositions {
		if err := ValidateExposition([]byte(input)); err == nil {
			t.Errorf("%s: expected validation error, got nil\ninput:\n%s", name, input)
		}
	}
}

// validExposition is a well-formed input using comments, HELP, an
// untyped family and a timestamp.
var validExposition = strings.Join([]string{
	"# plain comment",
	"# HELP a helpful text with spaces",
	"# TYPE a counter",
	"a 1",
	`a{l="v"} 2.5e3`,
	"# TYPE untyped_metric untyped",
	"untyped_metric 3 1712345678",
	"",
}, "\n")

func TestValidateExpositionAccepts(t *testing.T) {
	if err := ValidateExposition([]byte(validExposition)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

// FuzzValidateExposition feeds the parser arbitrary bytes (what promcheck
// and the bench read off a node) and the encoder arbitrary family names,
// label values and sample values. The parser must never panic, and
// whatever Exposition writes from finite values must validate.
func FuzzValidateExposition(f *testing.F) {
	for _, in := range invalidExpositions {
		f.Add([]byte(in), "pow.decide_total", "edge", 42.0)
	}
	f.Add([]byte(validExposition), "9starts digit", "a\\b\"c\nd", -2.5e-300)
	f.Fuzz(func(t *testing.T, data []byte, name, labelValue string, value float64) {
		_ = ValidateExposition(data)
		if math.IsNaN(value) || math.IsInf(value, 0) {
			return
		}
		e := NewExposition()
		e.Add(TypeGauge, name, name, value, Label{"l", labelValue})
		e.Add(TypeGauge, name, name, -value, Label{"l", labelValue + "'"})
		h := NewHistogram(1, 2, 4)
		h.Observe(value)
		h.Observe(value * 3)
		h.ExpositionInto(e, name+"_ms", name, Label{"l", labelValue})
		var b strings.Builder
		if _, err := e.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition([]byte(b.String())); err != nil {
			t.Fatalf("encoder output fails validation: %v\n%s", err, b.String())
		}
	})
}
