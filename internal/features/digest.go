package features

import (
	"sort"
	"time"
)

// EvidenceRow is one IP's compact verification-evidence digest, the unit
// the cluster plane gossips between nodes. Every field is chosen so rows
// merge as a state-based CRDT: Total and Failed are monotone counters
// (merged by max), and the solve credit is a decayed sum carried together
// with its decay reference time (merged by normalized max — see MergeRows).
// Merge order and duplication therefore cannot matter, which is what lets
// peers exchange digests on any topology, at any cadence, with relays and
// re-deliveries, and still converge.
type EvidenceRow struct {
	// IP identifies the client the evidence is about.
	IP string

	// Total and Failed are lifetime request counters (the fail-ratio
	// numerator and denominator). Monotone per origin, merged by max.
	Total  uint64
	Failed uint64

	// SolveCredit is the half-life-decayed verified-solve credit as of
	// CreditAt. The pair is a decayed-sum register: comparisons between
	// rows always normalize both credits to the later reference time
	// before taking the max, so merging a row with a later-decayed copy
	// of itself yields the decayed value — stale gossip can never
	// resurrect evidence that has since decayed away.
	SolveCredit float64
	CreditAt    time.Time
}

// MergeRows merges two evidence rows for the same IP under the given
// credit half-life. The operation is commutative, associative, and
// idempotent (the CRDT merge laws, pinned by property tests in the
// cluster package):
//
//   - counters merge by max — valid because each origin's counters are
//     monotone, and re-merging a relayed copy is a no-op;
//   - solve credit merges by normalized max: both credits are decayed to
//     the later of the two reference times and the larger survives. For
//     any set of rows the merged credit is the pointwise max of each
//     row's credit decayed to the latest reference time, which no
//     ordering or duplication can change.
func MergeRows(a, b EvidenceRow, halfLife time.Duration) EvidenceRow {
	out := a
	if b.Total > out.Total {
		out.Total = b.Total
	}
	if b.Failed > out.Failed {
		out.Failed = b.Failed
	}
	out.SolveCredit, out.CreditAt = mergeCredit(a.SolveCredit, a.CreditAt, b.SolveCredit, b.CreditAt, halfLife)
	return out
}

// mergeCredit merges two (credit, asOf) decayed-sum registers: decay the
// older to the newer reference time, keep the larger. Decaying down (never
// normalizing up) keeps the math overflow-free for arbitrarily distant
// timestamps.
func mergeCredit(ca float64, ta time.Time, cb float64, tb time.Time, halfLife time.Duration) (float64, time.Time) {
	if tb.After(ta) {
		ca, ta = decayCredit(ca, ta, tb, halfLife), tb
	} else if ta.After(tb) {
		cb = decayCredit(cb, tb, ta, halfLife)
	}
	if cb > ca {
		ca = cb
	}
	return ca, ta
}

// ExportEvidence appends every tracked IP's evidence row to dst (sorted by
// IP for deterministic wire encoding) and returns the extended slice. Rows
// with no evidence at all — never verified, never failed — are skipped:
// they carry nothing a peer could merge. maxRows > 0 truncates the sorted
// result, bounding digest size; truncation keeps the lexicographically
// first rows so repeated exports stay stable.
func (t *Tracker) ExportEvidence(dst []EvidenceRow, maxRows int) []EvidenceRow {
	start := len(dst)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, idx := range sh.index {
			e := &sh.slots[idx]
			if e.total == 0 && e.solveCredit == 0 {
				continue
			}
			dst = appendEvidenceRow(dst, e)
		}
		sh.mu.Unlock()
	}
	rows := dst[start:]
	sort.Slice(rows, func(i, j int) bool { return rows[i].IP < rows[j].IP })
	if maxRows > 0 && len(rows) > maxRows {
		dst = dst[:start+maxRows]
	}
	return dst
}

// appendEvidenceRow appends e's evidence digest to dst. Callers hold the
// owning shard's lock.
func appendEvidenceRow(dst []EvidenceRow, e *entrySlot) []EvidenceRow {
	return append(dst, EvidenceRow{
		IP:          e.ip,
		Total:       e.total,
		Failed:      e.totalFailed,
		SolveCredit: e.solveCredit,
		CreditAt:    nsTime(e.creditAtNS),
	})
}

// ExportEvidenceSince is the delta form of ExportEvidence: it appends only
// the rows whose exported evidence changed after the since watermark, and
// returns the extended slice, the new watermark (pass it as since on the
// next call), and whether the export actually was a delta.
//
// The watermark contract: every evidence change numbered at or below the
// returned watermark is either in the returned rows or was in the rows of
// the earlier export that handed out since. That holds because the
// watermark is loaded *before* any shard lock is taken, while change
// sequences are allocated and stamped *under* the shard lock — a change
// numbered ≤ watermark therefore completed its stamp before this scan
// acquired the lock, and is visible to it.
//
// The call degrades to a full export (delta=false, same row semantics as
// ExportEvidence, including the maxRows truncation) when since is zero, when
// any shard's dirty log has forgotten changes the caller has not seen yet
// (log overflow under churn), or when the delta itself would exceed maxRows
// — so a consumer never silently misses rows. Evicted entries simply stop
// being exported in either mode; the monotone CRDT state peers already
// merged stands.
func (t *Tracker) ExportEvidenceSince(dst []EvidenceRow, maxRows int, since uint64) ([]EvidenceRow, uint64, bool) {
	watermark := t.deltaSeq.Load()
	if since == 0 {
		return t.ExportEvidence(dst, maxRows), watermark, false
	}
	start := len(dst)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if since < sh.dirtyLost {
			sh.mu.Unlock()
			return t.ExportEvidence(dst[:start], maxRows), watermark, false
		}
		for _, idx := range sh.dirty {
			if idx == noSlot {
				continue // tombstone: the entry was evicted
			}
			e := &sh.slots[idx]
			if e.expSeq <= since || (e.total == 0 && e.solveCredit == 0) {
				continue
			}
			dst = appendEvidenceRow(dst, e)
		}
		sh.mu.Unlock()
		if maxRows > 0 && len(dst)-start > maxRows {
			return t.ExportEvidence(dst[:start], maxRows), watermark, false
		}
	}
	rows := dst[start:]
	sort.Slice(rows, func(i, j int) bool { return rows[i].IP < rows[j].IP })
	return dst, watermark, true
}

// MergeEvidence folds peer-reported evidence rows into the tracker's
// entries with the CRDT merge laws of MergeRows: counters lift to the
// fleet max and solve credit merges by normalized max, so a client that
// redeemed challenges on a sibling node carries its earned reputation
// here, and a relayed or duplicated digest changes nothing. Entries are
// created as needed (subject to the tracker's capacity bound, like any
// other observation).
func (t *Tracker) MergeEvidence(rows []EvidenceRow) {
	for i := range rows {
		r := &rows[i]
		if r.IP == "" {
			continue
		}
		sh := t.shard(r.IP)
		sh.mu.Lock()
		idx := t.entryLocked(sh, r.IP)
		e := &sh.slots[idx]
		creditAt := nsTime(e.creditAtNS)
		merged := MergeRows(EvidenceRow{
			Total:       e.total,
			Failed:      e.totalFailed,
			SolveCredit: e.solveCredit,
			CreditAt:    creditAt,
		}, *r, t.halfLife)
		if merged.Total != e.total || merged.Failed != e.totalFailed ||
			merged.SolveCredit != e.solveCredit || !merged.CreditAt.Equal(creditAt) {
			t.markDirtyLocked(sh, idx)
			e.total = merged.Total
			e.totalFailed = merged.Failed
			e.solveCredit = merged.SolveCredit
			e.creditAtNS = timeNS(merged.CreditAt)
		}
		sh.mu.Unlock()
	}
}
