package features

import (
	"math"
	"testing"
	"time"
)

func evidenceTracker(t *testing.T, opts ...TrackerOption) *Tracker {
	t.Helper()
	tr, err := NewTracker(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecordVerifyAccruesSolveCredit(t *testing.T) {
	tr := evidenceTracker(t)
	const ip = "198.51.100.7"
	tr.RecordVerify(ip, 13, true, at(0))
	tr.RecordVerify(ip, 9, true, at(1))
	attrs := attrsOf(tr, ip, at(1))
	if got := attrs[AttrSolveCredit]; math.Abs(got-(13*math.Exp2(-1.0/300)+9)) > 1e-9 {
		t.Errorf("solve credit = %v, want decayed 13 + 9", got)
	}
	if got := attrs[AttrFailStreak]; got != 0 {
		t.Errorf("fail streak = %v, want 0", got)
	}
}

func TestRecordVerifyHalfLifeDecay(t *testing.T) {
	tr := evidenceTracker(t, WithEvidenceHalfLife(10*time.Second))
	const ip = "a"
	tr.RecordVerify(ip, 16, true, at(0))
	// One half-life later the credit has halved; two later, quartered.
	if got := attrsOf(tr, ip, at(10))[AttrSolveCredit]; math.Abs(got-8) > 1e-9 {
		t.Errorf("credit after one half-life = %v, want 8", got)
	}
	if got := attrsOf(tr, ip, at(20))[AttrSolveCredit]; math.Abs(got-4) > 1e-9 {
		t.Errorf("credit after two half-lives = %v, want 4", got)
	}
	// Reading must not consume the credit: the entry itself decays from
	// its own reference time, not from the last read.
	if got := attrsOf(tr, ip, at(10))[AttrSolveCredit]; math.Abs(got-8) > 1e-9 {
		t.Errorf("re-read credit = %v, want 8 (reads must not mutate)", got)
	}
	// A non-monotonic clock must not inflate credit.
	if got := attrsOf(tr, ip, at(0).Add(-time.Hour))[AttrSolveCredit]; got > 16 {
		t.Errorf("credit inflated to %v on clock regression", got)
	}
}

func TestRecordVerifyFailStreak(t *testing.T) {
	tr := evidenceTracker(t)
	const ip = "b"
	tr.RecordVerify(ip, 0, false, at(0))
	tr.RecordVerify(ip, 0, false, at(1))
	if got := attrsOf(tr, ip, at(1))[AttrFailStreak]; got != 2 {
		t.Errorf("fail streak = %v, want 2", got)
	}
	// A successful solve clears the streak.
	tr.RecordVerify(ip, 8, true, at(2))
	attrs := attrsOf(tr, ip, at(2))
	if got := attrs[AttrFailStreak]; got != 0 {
		t.Errorf("fail streak after success = %v, want 0", got)
	}
	if got := attrs[AttrSolveCredit]; got != 8 {
		t.Errorf("credit after success = %v, want 8", got)
	}
}

func TestRecordVerifyCreatesEntryAndRespectsCapacity(t *testing.T) {
	tr := evidenceTracker(t, WithCapacity(4), WithShards(1))
	for i, ip := range []string{"a", "b", "c", "d", "e", "f"} {
		tr.RecordVerify(ip, 8, true, at(i))
	}
	if got := tr.Tracked(); got != 4 {
		t.Errorf("tracked = %d, want capacity 4", got)
	}
	// The oldest entries were LRU-evicted; their evidence is gone.
	if got := attrsOf(tr, "a", at(10))[AttrSolveCredit]; got != 0 {
		t.Errorf("evicted IP kept credit %v", got)
	}
	if got := attrsOf(tr, "f", at(10))[AttrSolveCredit]; got == 0 {
		t.Error("fresh IP lost its credit")
	}
}

func TestLifetimeFailRatio(t *testing.T) {
	tr := evidenceTracker(t, WithWindow(10*time.Second, 5))
	const ip = "c"
	// 2 failures in 8 requests, the failures early.
	for i := 0; i < 8; i++ {
		if err := tr.Observe(RequestInfo{IP: ip, Path: "/", At: at(i * 30), Failed: i < 2}); err != nil {
			t.Fatal(err)
		}
	}
	attrs := attrsOf(tr, ip, at(8*30))
	if got := attrs[AttrFailRatioTotal]; math.Abs(got-0.25) > 1e-9 {
		t.Errorf("lifetime fail ratio = %v, want 0.25", got)
	}
	// The windowed ratio has forgotten the early failures (requests are 30s
	// apart, window 10s) — exactly why redemption gates on the lifetime one.
	if got := attrs[AttrFailRatio]; got != 0 {
		t.Errorf("windowed fail ratio = %v, want 0 (failures aged out)", got)
	}
}

func TestRecordVerifyEmptyIPIsNoop(t *testing.T) {
	tr := evidenceTracker(t)
	tr.RecordVerify("", 8, true, at(0))
	if got := tr.Tracked(); got != 0 {
		t.Errorf("tracked = %d after empty-IP record", got)
	}
}

// TestEvidenceOnVectorPath pins that the evidence attributes flow through
// AttributesVector at their schema slots.
func TestEvidenceOnVectorPath(t *testing.T) {
	tr := evidenceTracker(t)
	const ip = "d"
	tr.RecordVerify(ip, 11, true, at(0))
	tr.RecordVerify(ip, 0, false, at(1))
	schema, err := NewSchema(AttrSolveCredit, AttrFailStreak, AttrFailRatioTotal)
	if err != nil {
		t.Fatal(err)
	}
	v := schema.NewVector()
	mask := tr.AttributesVector(v, schema, ip, at(1))
	if mask != schema.FullMask() {
		t.Fatalf("mask %b, want full coverage", mask)
	}
	attrs := attrsOf(tr, ip, at(1))
	for j := 0; j < schema.Len(); j++ {
		if v[j] != attrs[schema.Name(j)] {
			t.Errorf("slot %q = %v, want %v", schema.Name(j), v[j], attrs[schema.Name(j)])
		}
	}
}

func TestTrackerEvidenceHalfLifeValidation(t *testing.T) {
	if _, err := NewTracker(WithEvidenceHalfLife(-time.Second)); err == nil {
		t.Error("negative half-life accepted")
	}
	if _, err := NewTracker(WithEvidenceHalfLife(0)); err == nil {
		t.Error("zero half-life accepted")
	}
}
