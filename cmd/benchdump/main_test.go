package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadDump parses the committed hot-path baseline.
func loadDump(t *testing.T) dump {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var d dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// writeDump stores d as a baseline file in a fresh temp directory.
func writeDump(t *testing.T, d dump) string {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGate runs the regression gate on the committed baseline against
// itself with one field changed per case, and requires each gate to fail
// alone, with its own message. The committed file records bytes/IP from
// before the 392 B record, which the current ceiling rejects (its own
// case below), so the reference run sits exactly at the ceiling.
func TestGate(t *testing.T) {
	const tol = 0.2
	cases := []struct {
		name string
		cur  func(*dump)
		base func(*dump)
		want string // "" = passes
	}{
		{name: "unchanged", want: ""},
		{
			name: "ns/op past tolerance",
			cur:  func(d *dump) { setNs(d, "Verify", d.Benchmarks["Verify"].NsPerOp*(1+tol)*1.01) },
			want: "Verify: ",
		},
		{
			name: "ns/op inside tolerance",
			cur:  func(d *dump) { setNs(d, "Verify", d.Benchmarks["Verify"].NsPerOp*(1+tol)*0.99) },
			want: "",
		},
		{
			name: "allocation on a gated benchmark",
			cur: func(d *dump) {
				r := d.Benchmarks["Decide"]
				r.AllocsPerOp = 1
				d.Benchmarks["Decide"] = r
			},
			want: "Decide: 1 allocs/op",
		},
		{
			name: "gated benchmark missing",
			cur:  func(d *dump) { delete(d.Benchmarks, "Issue") },
			want: "Issue: missing from current run",
		},
		{
			name: "evidence over decide",
			cur:  func(d *dump) { d.Ratios["evidence_over_decide"] = evidenceRatioLimit + 0.01 },
			want: "DecideWithEvidence/Decide ratio",
		},
		{
			name: "traced over decide",
			cur:  func(d *dump) { d.Ratios["traced_over_decide"] = tracedRatioLimit + 0.001 },
			want: "DecideTraced/Decide ratio",
		},
		{
			name: "batch not cheaper than evidence",
			cur:  func(d *dump) { d.Ratios["batch_over_evidence"] = 1 },
			want: "DecideBatch/DecideWithEvidence ratio",
		},
		{
			name: "bytes/IP over the ceiling",
			cur:  func(d *dump) { d.Capacity.BytesPerIP = bytesPerIPCeiling + 0.1 },
			want: "exceeds ceiling",
		},
		{
			// What BENCH_hotpath.json held for the 584-byte record, gated
			// against a baseline from the same layout.
			name: "committed pre-slimming bytes/IP",
			base: func(d *dump) { d.Capacity.BytesPerIP = 653.3 },
			cur:  func(d *dump) { d.Capacity.BytesPerIP = 653.3 },
			want: "exceeds ceiling",
		},
		{
			// Measured with entrySlot padded back to 392 B (one epoch
			// stamp per window bucket and the path spill on the record),
			// gated against a baseline from the same layout.
			name: "392-byte record bytes/IP",
			base: func(d *dump) { d.Capacity.BytesPerIP = 461.4 },
			cur:  func(d *dump) { d.Capacity.BytesPerIP = 461.4 },
			want: "exceeds ceiling",
		},
		{
			name: "committed bytes/IP",
			cur:  func(d *dump) { d.Capacity.BytesPerIP = loadDump(t).Capacity.BytesPerIP },
			want: "",
		},
		{
			name: "bytes/IP over baseline",
			base: func(d *dump) { d.Capacity.BytesPerIP = bytesPerIPCeiling / (1 + tol) * 0.99 },
			want: "bytes/IP vs baseline",
		},
		{
			name: "capacity section missing",
			cur:  func(d *dump) { d.Capacity = nil },
			want: "capacity: section missing",
		},
		{
			name: "delta frame ratio missing",
			cur:  func(d *dump) { delete(d.Ratios, "delta_over_full_frame") },
			want: "delta_over_full_frame ratio missing",
		},
		{
			name: "delta frame ratio over limit",
			cur:  func(d *dump) { d.Ratios["delta_over_full_frame"] = deltaFrameRatioLimit + 0.01 },
			want: "delta/full frame ratio",
		},
		{
			name: "scaling over limit",
			cur:  func(d *dump) { d.Ratios["scaling_cpu2_over_cpu1"] = scalingRatioLimit + 0.01 },
			want: "scaling_cpu2_over_cpu1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := loadDump(t)
			if tc.base != nil {
				tc.base(&base)
			}
			cur := loadDump(t)
			cur.Capacity.BytesPerIP = bytesPerIPCeiling
			if tc.cur != nil {
				tc.cur(&cur)
			}
			err := gate(cur, writeDump(t, base), tol)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("gate failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want a failure naming %q", tc.want)
			}
			lines := strings.Split(err.Error(), "\n  ")
			if len(lines) != 2 || !strings.Contains(lines[1], tc.want) {
				t.Fatalf("gate error = %q, want exactly one violation naming %q", err, tc.want)
			}
		})
	}
}

func setNs(d *dump, name string, ns float64) {
	r := d.Benchmarks[name]
	r.NsPerOp = ns
	d.Benchmarks[name] = r
}

// TestGateMissingBaseline pins that an unreadable baseline fails the gate
// instead of passing it vacuously.
func TestGateMissingBaseline(t *testing.T) {
	if err := gate(loadDump(t), filepath.Join(t.TempDir(), "absent.json"), 0.2); err == nil {
		t.Fatal("gate passed without a baseline")
	}
}

// TestRoundStatistics pins how alternating rounds become gate inputs:
// each benchmark records its fastest sample, and a ratio gate reads the
// median of the per-round ratios, so one round slowed by the host on one
// side moves neither.
func TestRoundStatistics(t *testing.T) {
	rounds := [][]result{
		{{NsPerOp: 100}, {NsPerOp: 103}},
		{{NsPerOp: 90}, {NsPerOp: 140}}, // the numerator's sample hit a noisy moment
		{{NsPerOp: 110}, {NsPerOp: 112}},
		{{NsPerOp: 95}, {NsPerOp: 98}},
	}
	if got := fastest(rounds, 0).NsPerOp; got != 90 {
		t.Errorf("fastest = %v, want 90", got)
	}
	want := (98.0/95 + 103.0/100) / 2 // the middle two of the four ratios
	if got := medianRatio(rounds, 1, 0); got != want {
		t.Errorf("median ratio = %v, want %v", got, want)
	}
	if got := medianRatio(rounds[:3], 1, 0); got != 103.0/100 {
		t.Errorf("median ratio of 3 rounds = %v, want %v", got, 103.0/100)
	}
}
