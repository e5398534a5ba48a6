package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"aipow/bench/workload"
)

// phase is one timed stretch of load: the warm-up or the measured window.
type phase struct {
	start, end time.Time
}

// nSlices is how many equal slices a phase is cut into. Throughput, latency
// and CPU are computed per slice and reported as the median slice: on a
// shared machine interference comes in bursts of seconds, and a burst
// shorter than half the window then moves no reported number.
const nSlices = 5

// slice returns the slice of the phase that t falls in; what completes
// after the end belongs to the last.
func (ph phase) slice(t time.Time) int {
	k := int(t.Sub(ph.start) * nSlices / ph.end.Sub(ph.start))
	return min(max(k, 0), nSlices-1)
}

// Pipelines of the deployment under test, in the order tallies index them.
const (
	pipeWeb = iota
	pipeMH
	pipeBulk
	pipeCount
)

var pipeNames = [pipeCount]string{"web", "mh", "bulk"}

// tally is what the generator saw one pipeline answer, for reconciliation
// against the server's own counters.
type tally struct {
	challenges uint64 // 428s / "challenge" items: Δissued
	passes     uint64 // 200s / "pass" items: Δverified
	forged     uint64 // forged submissions sent: Δrejected
}

// recorder collects one worker's observations for one phase. Workers own
// their recorder, so nothing here is shared until the phase has ended.
type recorder struct {
	ph   phase
	lat  [nSlices][]int64 // latency of correct ops, ns, by the slice they completed in
	ok   [nSlices]uint64  // correct ops completed per slice
	late []int64          // open loop only: send time minus due time, ns

	attempted uint64
	failed    uint64
	firstErr  error

	solves uint64 // puzzles solved
	hashes uint64 // solver attempts spent on them

	seen [pipeCount]tally

	// Issued difficulty by feed label (0 benign, 1 malicious), for
	// policy.difficulty_gap_bits.
	diffSum, diffN [2]uint64
}

func newRecorder(ph phase, expectOps int) *recorder {
	r := &recorder{ph: ph}
	for k := range r.lat {
		r.lat[k] = make([]int64, 0, expectOps/nSlices+16)
	}
	return r
}

// observe files one latency sample, from → done, that stands for ops
// correct ops (one, except for a batch POST).
func (r *recorder) observe(from, done time.Time, ops uint64) {
	k := r.ph.slice(done)
	r.lat[k] = append(r.lat[k], int64(done.Sub(from)))
	r.ok[k] += ops
}

// priced notes the difficulty issued to client idx, by its feed label;
// unknown clients have none.
func (r *recorder) priced(in *workload.Inputs, idx int32, difficulty int) {
	if int(idx) >= in.NFeed {
		return
	}
	class := 0
	if in.Malicious[idx] {
		class = 1
	}
	r.diffSum[class] += uint64(difficulty)
	r.diffN[class]++
}

// fail counts n failed ops and keeps the first explanation.
func (r *recorder) fail(n uint64, err error) {
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// merge folds workers' recorders into one.
func merge(recs []*recorder) *recorder {
	out := &recorder{ph: recs[0].ph}
	for _, r := range recs {
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], r.lat[k]...)
			out.ok[k] += r.ok[k]
		}
		out.late = append(out.late, r.late...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		out.solves += r.solves
		out.hashes += r.hashes
		for p := range out.seen {
			out.seen[p].challenges += r.seen[p].challenges
			out.seen[p].passes += r.seen[p].passes
			out.seen[p].forged += r.seen[p].forged
		}
		for c := range out.diffSum {
			out.diffSum[c] += r.diffSum[c]
			out.diffN[c] += r.diffN[c]
		}
	}
	for k := range out.lat {
		slices.Sort(out.lat[k])
	}
	slices.Sort(out.late)
	return out
}

// all returns every latency sample of the phase, sorted.
func (r *recorder) all() []int64 {
	var out []int64
	for k := range r.lat {
		out = append(out, r.lat[k]...)
	}
	slices.Sort(out)
	return out
}

// quantile reads the q-quantile of sorted by nearest rank; 0 when empty.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// spinBefore is how long before an op's due time the pacer stops sleeping
// and starts polling the clock. A plain time.Sleep to the due time wakes
// late by a scheduler-dependent amount — 700 µs at the median when this
// benchmark was sized — and an open-loop generator that sends late
// measures itself.
const spinBefore = 2 * time.Millisecond

// waitUntil returns at due (or at once when due has passed): sleep to
// within spinBefore, then yield-spin. Spinning also keeps the core awake:
// on the sizing VM an idle core took the better part of a millisecond to
// wake, which is the rest of that artefact.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		// Yield twice over: to this process's other goroutines (the
		// readers), then to the machine's other threads (the server). A
		// spin that yields to neither starves both on a two-core box and
		// then measures the starvation.
		runtime.Gosched()
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI.
const clockTick = 10 * time.Millisecond

// procCPU reads a process's consumed CPU time (user + system) from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	close := bytes.LastIndexByte(buf, ')')
	fields := bytes.Fields(buf[close+1:])
	if close < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("bench: unexpected /proc/%d/stat format", pid)
	}
	utime, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unexpected /proc/%d/stat format", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS reads a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}
