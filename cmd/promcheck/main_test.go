package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validScrape = `# HELP aipow_issued Challenges issued.
# TYPE aipow_issued counter
aipow_issued{pipeline="web",node="n1"} 7
# HELP aipow_serving_latency_ms Serving-path latency.
# TYPE aipow_serving_latency_ms histogram
aipow_serving_latency_ms_bucket{stage="decide",le="0.5"} 3
aipow_serving_latency_ms_bucket{stage="decide",le="1"} 6
aipow_serving_latency_ms_bucket{stage="decide",le="+Inf"} 7
aipow_serving_latency_ms_sum{stage="decide"} 4.2
aipow_serving_latency_ms_count{stage="decide"} 7
`

func TestAcceptsValidScrape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scrape.prom")
	if err := os.WriteFile(path, []byte(validScrape), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatalf("file: %v", err)
	}
	if err := run(nil, strings.NewReader(validScrape), &out); err != nil {
		t.Fatalf("stdin: %v", err)
	}
	if got := strings.Count(out.String(), "bytes of valid exposition"); got != 2 {
		t.Fatalf("output %q, want two ok lines", out.String())
	}
}

func TestRejectsBrokenScrape(t *testing.T) {
	for name, scrape := range map[string]string{
		"bucket decreases":   strings.Replace(validScrape, `le="1"} 6`, `le="1"} 2`, 1),
		"+Inf is not _count": strings.Replace(validScrape, `_count{stage="decide"} 7`, `_count{stage="decide"} 8`, 1),
		"sample before TYPE": "aipow_issued 1\n# TYPE aipow_issued counter\n",
		"bad metric name":    strings.Replace(validScrape, "aipow_issued{", "aipow-issued{", 1),
	} {
		if err := run(nil, strings.NewReader(scrape), &strings.Builder{}); err == nil {
			t.Errorf("%s: accepted\n%s", name, scrape)
		}
	}
	if err := run([]string{"a", "b"}, nil, &strings.Builder{}); err == nil {
		t.Error("two file arguments accepted")
	}
}
