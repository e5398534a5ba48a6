package dataset

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 50
	samples, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, samples); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("round trip lost samples: %d -> %d", len(samples), len(got))
	}
	for i := range samples {
		if got[i].IP != samples[i].IP || got[i].Malicious != samples[i].Malicious ||
			got[i].Family != samples[i].Family {
			t.Fatalf("sample %d metadata mismatch: %+v vs %+v", i, got[i], samples[i])
		}
		for k, v := range samples[i].Attrs {
			if got[i].Attrs[k] != v {
				t.Fatalf("sample %d attr %q: %v != %v", i, k, got[i].Attrs[k], v)
			}
		}
	}
}

func TestWriteCSVMissingAttribute(t *testing.T) {
	s := Sample{IP: "1.2.3.4", Attrs: map[string]float64{"spam_ratio": 1}}
	var b strings.Builder
	if err := WriteCSV(&b, []Sample{s}); err == nil {
		t.Fatal("sample missing attributes accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad_header", "a,b,c\n"},
		{"short_header", "ip\n"},
		{"bad_label", "ip,label,family,spam_ratio\n1.1.1.1,weird,,0.5\n"},
		{"bad_float", "ip,label,family,spam_ratio\n1.1.1.1,benign,,notanumber\n"},
		{"ragged_row_rejected_by_csv", "ip,label,family,spam_ratio\n1.1.1.1,benign\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Fatal("malformed CSV accepted")
			}
		})
	}
}

func TestReadCSVPreservesUnknownColumns(t *testing.T) {
	in := "ip,label,family,custom_attr\n9.9.9.9,malicious,botx,42\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Attrs["custom_attr"] != 42 {
		t.Fatalf("unknown column lost: %+v", got)
	}
	if !got[0].Malicious || got[0].Family != "botx" {
		t.Fatalf("metadata mismatch: %+v", got[0])
	}
}

// TestReadCSVRetention holds the IPs of a 5 000-row feed, as a store
// keyed by IP does, and requires the feed's lines to be collectable:
// each IP must not pin the whole line it was read from.
func TestReadCSVRetention(t *testing.T) {
	samples, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var feed bytes.Buffer
	if err := WriteCSV(&feed, samples); err != nil {
		t.Fatal(err)
	}
	samples = nil
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	before := heapInUse()
	got, err := ReadCSV(bytes.NewReader(feed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ips := make([]string, len(got))
	for i, s := range got {
		ips[i] = s.IP
	}
	got = nil
	held := int64(heapInUse()) - int64(before)
	if held > 600<<10 {
		t.Errorf("the IPs of a %d-row feed hold %d B, over 600 KiB", len(ips), held)
	}
	runtime.KeepAlive(ips)
	runtime.KeepAlive(feed.Bytes())
}
