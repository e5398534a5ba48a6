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
			name: "committed pre-slimming bytes/IP",
			cur:  func(d *dump) { d.Capacity.BytesPerIP = loadDump(t).Capacity.BytesPerIP },
			want: "exceeds ceiling",
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
