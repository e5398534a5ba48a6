package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/obs"
	"aipow/internal/puzzle"
)

// Defaults for the exchange plane.
const (
	// DefaultExchange is the peer-exchange interval: the bounded
	// staleness of everything the cluster plane knows about its peers.
	DefaultExchange = 1 * time.Second

	// DefaultRetain is how long redeemed tags are guaranteed to stay in
	// the Bloom ring; deployments size it to TTL + skew so the freshness
	// check takes over exactly when the filter lets go.
	DefaultRetain = 2 * time.Minute

	// DefaultMaxRows bounds the evidence rows exported per frame.
	DefaultMaxRows = 4096

	// maxPeerOrigins bounds how many distinct origins a node will track;
	// frames naming more are partially absorbed (first come, first kept)
	// so a hostile peer cannot balloon memory with invented origins.
	maxPeerOrigins = 64
)

// Config configures a cluster Node.
type Config struct {
	// Origin names this node in exchanged frames. Required, and must be
	// unique per fleet member (a hostname, pod name, or instance id).
	Origin string

	// Exchange is the peer-exchange interval used by Run. Defaults to
	// DefaultExchange.
	Exchange time.Duration

	// FilterBits and FilterHashes set the per-bucket Bloom geometry;
	// FilterBuckets the ring length. Zero values take the Default*
	// constants. All fleet members must agree or their rings refuse to
	// merge.
	FilterBits    int
	FilterHashes  int
	FilterBuckets int

	// Retain is the minimum time a redeemed tag stays suppressable;
	// bucket span is Retain/(FilterBuckets-1). Defaults to DefaultRetain.
	Retain time.Duration

	// HalfLife is the solve-credit decay half-life used when merging
	// evidence rows; it must match the tracker's. BindLocal overrides it
	// from the tracker, so explicit configuration is only for nodes
	// running without one.
	HalfLife time.Duration

	// MaxRows bounds evidence rows exported per frame. Defaults to
	// DefaultMaxRows; negative disables the export entirely.
	MaxRows int

	// DeltaEvery enables delta evidence gossip on this node's *pulls*:
	// when K ≥ 1, the node asks peers only for rows changed since its
	// last pull, with a full-frame anti-entropy pull every Kth exchange
	// (the first pull from a peer is always full). Zero keeps every pull
	// full-frame. Deltas change only how much is shipped, never what
	// converges: rows merge as a CRDT, and the exporter falls back to a
	// full frame whenever it cannot prove the delta covers everything the
	// puller missed.
	DeltaEvery int

	// Key, when set, HMAC-signs encoded frames and rejects peers' frames
	// that fail verification (see EncodeFrame/DecodeFrame). In-process
	// exchange ignores it.
	Key []byte

	// Now injects the node's clock. Defaults to time.Now.
	Now func() time.Time

	// Events receives cluster membership events: peer_join when a frame
	// first names an unknown origin, peer_stale when a fetcher that was
	// healthy starts failing. Nil drops them. Sinks are called outside the
	// node's lock but must still be fast — they run on the exchange loop.
	Events obs.Sink
}

// OriginSection is one origin's slice of a frame: its cumulative serving
// counters, per-difficulty profile, and (for the frame sender itself) its
// tracker's evidence rows. Counters are cumulative and monotone per
// origin, so they merge by pointwise max — receiving the same section
// twice, or via a relay, is a no-op.
type OriginSection struct {
	Origin       string
	Counters     map[string]float64
	DiffIssued   []uint64
	DiffVerified []uint64
	Rows         []features.EvidenceRow
}

// Frame is one node's complete exchange payload: every origin it knows
// (itself first, then relayed peers sorted by origin) plus its Bloom ring
// snapshot.
type Frame struct {
	Origins []OriginSection
	Buckets []FilterBucket

	// Gen is the sender's evidence watermark as of this frame: pass it
	// back as since on the next pull to receive only newer rows. Zero
	// when the sender exports no evidence.
	Gen uint64

	// Delta marks a frame whose evidence rows cover only changes after
	// the requested since watermark (counters and Bloom buckets are
	// always complete). Full frames — including every delta request the
	// sender had to answer with a full export — carry false.
	Delta bool
}

// peerState is the retained view of one remote origin.
type peerState struct {
	counters     map[string]float64
	diffIssued   [puzzle.MaxDifficulty + 1]uint64
	diffVerified [puzzle.MaxDifficulty + 1]uint64
}

// pullState is the delta-gossip cursor for one peer this node pulls from:
// the watermark of the last absorbed frame and how many pulls completed
// (drives the every-Kth anti-entropy full pull).
type pullState struct {
	gen   uint64
	count uint64
}

// Node is one fleet member's cluster plane. It implements
// puzzle.TagExchange (replay suppression), exports and absorbs evidence
// digests (reputation gossip), and republishes peer counters as a
// feedback.Source (fleet feedback). All methods are safe for concurrent
// use; the Seen/Redeemed pair is allocation-free.
type Node struct {
	cfg  Config
	ring *Ring

	mu     sync.Mutex
	stats  feedback.Source
	export func(dst []features.EvidenceRow, maxRows int, since uint64) ([]features.EvidenceRow, uint64, bool)
	merge  func(rows []features.EvidenceRow)
	peers  map[string]*peerState
	pulls  map[string]*pullState

	filterHits  uint64
	exchanges   uint64
	absorbs     uint64
	absorbErrs  uint64
	fullFrames  uint64
	deltaFrames uint64
	frameRows   uint64

	runMu     sync.Mutex
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewNode builds a node from cfg, applying defaults. The node is inert
// until its hooks are bound (BindLocal) and an exchange loop runs (Run,
// or a caller driving ExchangeWith/Absorb itself — the simulation does).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Origin == "" {
		return nil, fmt.Errorf("cluster: node needs an origin name")
	}
	if cfg.Exchange <= 0 {
		cfg.Exchange = DefaultExchange
	}
	if cfg.FilterBits == 0 {
		cfg.FilterBits = DefaultFilterBits
	}
	if cfg.FilterHashes == 0 {
		cfg.FilterHashes = DefaultFilterHashes
	}
	if cfg.FilterBuckets == 0 {
		cfg.FilterBuckets = DefaultBuckets
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = DefaultMaxRows
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	span := cfg.Retain / time.Duration(cfg.FilterBuckets-1)
	if span <= 0 {
		span = time.Second
	}
	ring, err := NewRing(cfg.FilterBits, cfg.FilterHashes, cfg.FilterBuckets, span)
	if err != nil {
		return nil, err
	}
	return &Node{
		cfg:   cfg,
		ring:  ring,
		peers: make(map[string]*peerState),
		pulls: make(map[string]*pullState),
	}, nil
}

// Origin reports the node's fleet-unique name.
func (n *Node) Origin() string { return n.cfg.Origin }

// Ring exposes the node's Bloom ring (tests and stats).
func (n *Node) Ring() *Ring { return n.ring }

// BindLocal attaches the node's local state: stats supplies the origin
// section's counters (the local framework — never a source that already
// includes peer counters, or the fleet would double-count itself), and
// tracker supplies evidence export/merge. Either may be nil to disable
// that plane. The tracker's credit half-life becomes the node's merge
// half-life, keeping gossip decay consistent with local decay.
func (n *Node) BindLocal(stats feedback.Source, tracker *features.Tracker) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = stats
	if tracker != nil {
		n.cfg.HalfLife = tracker.EvidenceHalfLife()
		n.export = tracker.ExportEvidenceSince
		n.merge = tracker.MergeEvidence
	} else {
		n.export = nil
		n.merge = nil
	}
}

// SeenTag implements puzzle.TagExchange over the Bloom ring.
func (n *Node) SeenTag(tag [puzzle.TagSize]byte) bool {
	if !n.ring.Seen(tag) {
		return false
	}
	n.mu.Lock()
	n.filterHits++
	n.mu.Unlock()
	return true
}

// RedeemedTag implements puzzle.TagExchange: the tag enters the bucket of
// its redemption instant at and gossips outward on the next exchange.
func (n *Node) RedeemedTag(tag [puzzle.TagSize]byte, at time.Time) {
	n.ring.Add(tag, at)
}

// Frame snapshots the node's exchange payload: its own section (local
// counters, difficulty profile, evidence rows), every known peer's
// section (relayed counters — rows are not relayed; evidence already
// spreads transitively through each tracker's own export), and the Bloom
// ring.
func (n *Node) Frame() *Frame { return n.frameSince(0, true) }

// FrameSince is Frame for a delta pull: evidence rows cover only changes
// after the since watermark when the exporter can prove that is complete,
// and fall back to the full row set otherwise (Frame.Delta reports which
// happened). since zero is exactly Frame.
func (n *Node) FrameSince(since uint64) *Frame { return n.frameSince(since, true) }

// frameSince builds the exchange payload. includeRing=false skips the
// Bloom snapshot for callers that merge rings directly (ExchangeWith).
func (n *Node) frameSince(since uint64, includeRing bool) *Frame {
	f := &Frame{}
	n.mu.Lock()
	self := OriginSection{Origin: n.cfg.Origin, Counters: make(map[string]float64, 8)}
	if n.stats != nil {
		n.stats.StatsInto(self.Counters)
		self.DiffIssued = make([]uint64, puzzle.MaxDifficulty+1)
		self.DiffVerified = make([]uint64, puzzle.MaxDifficulty+1)
		n.stats.DifficultyProfileInto(self.DiffIssued, self.DiffVerified)
	}
	export := n.export
	maxRows := n.cfg.MaxRows
	f.Origins = append(f.Origins, self)
	for _, origin := range n.sortedPeersLocked() {
		ps := n.peers[origin]
		sec := OriginSection{Origin: origin, Counters: make(map[string]float64, len(ps.counters))}
		for k, v := range ps.counters {
			sec.Counters[k] = v
		}
		sec.DiffIssued = append([]uint64(nil), ps.diffIssued[:]...)
		sec.DiffVerified = append([]uint64(nil), ps.diffVerified[:]...)
		f.Origins = append(f.Origins, sec)
	}
	n.mu.Unlock()
	// Export outside n.mu: the tracker has its own locking, and the local
	// stats source must never be able to re-enter the node.
	if export != nil && maxRows >= 0 {
		rows, gen, delta := export(nil, maxRows, since)
		f.Origins[0].Rows = rows
		f.Gen, f.Delta = gen, delta
		n.mu.Lock()
		if delta {
			n.deltaFrames++
		} else {
			n.fullFrames++
		}
		n.frameRows += uint64(len(rows))
		n.mu.Unlock()
	}
	if includeRing {
		f.Buckets = n.ring.Snapshot(nil)
	}
	return f
}

// nextSince picks the watermark for the node's next pull from origin:
// zero (full frame) when delta gossip is off, on the first pull, or on
// the every-DeltaEvery-th anti-entropy pull; otherwise the watermark of
// the last frame absorbed from that peer.
func (n *Node) nextSince(origin string) uint64 {
	if n.cfg.DeltaEvery <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.pulls[origin]
	if st == nil || st.count%uint64(n.cfg.DeltaEvery) == 0 {
		return 0
	}
	return st.gen
}

// notePulled records a completed pull from origin for delta-cursor
// bookkeeping. The map is bounded like the peer table: past the cap new
// origins simply keep pulling full frames.
func (n *Node) notePulled(origin string, gen uint64) {
	if n.cfg.DeltaEvery <= 0 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.pulls[origin]
	if st == nil {
		if len(n.pulls) >= maxPeerOrigins {
			return
		}
		st = &pullState{}
		n.pulls[origin] = st
	}
	st.gen = gen
	st.count++
}

func (n *Node) sortedPeersLocked() []string {
	origins := make([]string, 0, len(n.peers))
	for o := range n.peers {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	return origins
}

// Absorb folds a peer's frame into local state: counters lift to the
// per-origin pointwise max, evidence rows merge into the tracker under
// the CRDT laws, and Bloom buckets OR into the ring. Sections about this
// node itself are ignored (its own counters are authoritative locally).
// Absorbing the same frame twice, or frames in any order, converges to
// the same state.
func (n *Node) Absorb(f *Frame) {
	if f == nil {
		return
	}
	var rows []features.EvidenceRow
	var joined []string
	n.mu.Lock()
	for i := range f.Origins {
		sec := &f.Origins[i]
		if sec.Origin == "" || sec.Origin == n.cfg.Origin {
			continue
		}
		ps := n.peers[sec.Origin]
		if ps == nil {
			if len(n.peers) >= maxPeerOrigins {
				continue
			}
			ps = &peerState{counters: make(map[string]float64, len(sec.Counters))}
			n.peers[sec.Origin] = ps
			if n.cfg.Events != nil {
				joined = append(joined, sec.Origin)
			}
		}
		for k, v := range sec.Counters {
			if v > ps.counters[k] {
				ps.counters[k] = v
			}
		}
		for d := 0; d < len(ps.diffIssued) && d < len(sec.DiffIssued); d++ {
			if sec.DiffIssued[d] > ps.diffIssued[d] {
				ps.diffIssued[d] = sec.DiffIssued[d]
			}
		}
		for d := 0; d < len(ps.diffVerified) && d < len(sec.DiffVerified); d++ {
			if sec.DiffVerified[d] > ps.diffVerified[d] {
				ps.diffVerified[d] = sec.DiffVerified[d]
			}
		}
		if len(sec.Rows) > 0 {
			rows = append(rows, sec.Rows...)
		}
	}
	merge := n.merge
	n.absorbs++
	n.mu.Unlock()
	// Join events fire outside n.mu: a sink may snapshot node stats.
	for _, origin := range joined {
		n.cfg.Events(obs.Event{
			At:     n.cfg.Now(),
			Kind:   obs.EventPeerJoin,
			Node:   n.cfg.Origin,
			Detail: origin,
		})
	}
	if merge != nil && len(rows) > 0 {
		merge(rows)
	}
	n.ring.Merge(f.Buckets)
}

// ExchangeWith pulls peer's state directly — the in-process fast path
// used by the simulation engine and co-located deployments. Equivalent to
// Absorb(peer.Frame()) except the Bloom rings merge without snapshot
// copies. One call is half an exchange; call it in both directions for a
// symmetric gossip round.
func (n *Node) ExchangeWith(peer *Node) {
	if peer == nil || peer == n {
		return
	}
	f := peer.frameSince(n.nextSince(peer.cfg.Origin), false)
	n.Absorb(f)
	n.ring.MergeFrom(peer.ring)
	n.mu.Lock()
	n.exchanges++
	n.mu.Unlock()
	n.notePulled(peer.cfg.Origin, f.Gen)
}

// PeerSource returns a feedback.Source over the sum of all peer-reported
// counters — everything the fleet serves except this node itself. Sum it
// with the local framework (feedback.NewSumSource) to drive a controller
// on cluster-wide totals.
func (n *Node) PeerSource() feedback.Source { return peerSource{n: n} }

type peerSource struct{ n *Node }

func (p peerSource) StatsInto(dst map[string]float64) {
	p.n.mu.Lock()
	defer p.n.mu.Unlock()
	// Origin-sorted iteration: several origins fold into the same keys,
	// and float accumulation must not depend on map order (the simulation
	// byte-compares reports across runs).
	for _, origin := range p.n.sortedPeersLocked() {
		for k, v := range p.n.peers[origin].counters {
			dst[k] += v
		}
	}
}

func (p peerSource) DifficultyProfileInto(issued, verified []uint64) {
	for i := range issued {
		issued[i] = 0
	}
	for i := range verified {
		verified[i] = 0
	}
	p.n.mu.Lock()
	defer p.n.mu.Unlock()
	for _, ps := range p.n.peers {
		for d := 0; d < len(issued) && d < len(ps.diffIssued); d++ {
			issued[d] += ps.diffIssued[d]
		}
		for d := 0; d < len(verified) && d < len(ps.diffVerified); d++ {
			verified[d] += ps.diffVerified[d]
		}
	}
}

// Stats describes the node's exchange-plane counters.
type Stats struct {
	Origin      string
	Peers       int
	FilterHits  uint64 // serving-path rejections from the fleet filter
	Exchanges   uint64 // completed exchange pulls
	Absorbs     uint64 // frames folded in
	AbsorbErrs  uint64 // failed pulls (fetch or decode errors)
	FullFrames  uint64 // frames this node served with the full row set
	DeltaFrames uint64 // frames this node served as deltas
	FrameRows   uint64 // cumulative evidence rows served across frames
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		Origin:      n.cfg.Origin,
		Peers:       len(n.peers),
		FilterHits:  n.filterHits,
		Exchanges:   n.exchanges,
		Absorbs:     n.absorbs,
		AbsorbErrs:  n.absorbErrs,
		FullFrames:  n.fullFrames,
		DeltaFrames: n.deltaFrames,
		FrameRows:   n.frameRows,
	}
}

// Fetcher pulls one peer's current frame; implementations wrap whatever
// transport the deployment uses (HTTPFetcher ships with the package).
type Fetcher interface {
	Fetch() (*Frame, error)
}

// Run starts the exchange loop: every Exchange interval it pulls a frame
// from each fetcher and absorbs it. Errors count in Stats and never stop
// the loop — a partitioned peer resumes contributing when it heals.
// Run returns immediately; the loop runs until Close. Calling Run twice
// is an error.
func (n *Node) Run(peers []Fetcher) error {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	if n.stop != nil {
		return fmt.Errorf("cluster: node %q exchange loop already running", n.cfg.Origin)
	}
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go n.loop(peers, n.stop, n.done)
	return nil
}

func (n *Node) loop(peers []Fetcher, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	// Fetchers holding network state (keep-alive connections and their
	// goroutines) are released when the loop dies, so a closed or rebuilt
	// node leaves nothing behind.
	defer func() {
		for _, p := range peers {
			if c, ok := p.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	ticker := time.NewTicker(n.cfg.Exchange)
	defer ticker.Stop()
	// Per-fetcher health, owned by the loop: peer_stale fires on each
	// healthy→failing edge, not once per failed pull, so a partitioned
	// peer produces one event per outage instead of one per tick.
	failing := make([]bool, len(peers))
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			n.exchangeOnce(peers, failing)
		}
	}
}

// exchangeOnce performs one pull round over the fetchers. failing carries
// per-fetcher health between rounds (may be nil for one-shot callers).
func (n *Node) exchangeOnce(peers []Fetcher, failing []bool) {
	for i, p := range peers {
		f, err := p.Fetch()
		if err != nil {
			n.mu.Lock()
			n.absorbErrs++
			n.mu.Unlock()
			if i < len(failing) && !failing[i] {
				failing[i] = true
				if n.cfg.Events != nil {
					n.cfg.Events(obs.Event{
						At:     n.cfg.Now(),
						Kind:   obs.EventPeerStale,
						Node:   n.cfg.Origin,
						Detail: fetcherName(p, i),
					})
				}
			}
			continue
		}
		if i < len(failing) {
			failing[i] = false
		}
		n.Absorb(f)
		n.mu.Lock()
		n.exchanges++
		n.mu.Unlock()
	}
}

// fetcherName labels a fetcher in events — the peer URL when the
// transport exposes one, otherwise its slot index.
func fetcherName(p Fetcher, i int) string {
	if h, ok := p.(*HTTPFetcher); ok {
		return h.URL
	}
	return fmt.Sprintf("peer[%d]", i)
}

// Close stops the exchange loop and waits for it to drain. Idempotent,
// and safe on a node whose loop never started.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.runMu.Lock()
		stop, done := n.stop, n.done
		n.runMu.Unlock()
		if stop != nil {
			close(stop)
			<-done
		}
	})
	return nil
}

var _ puzzle.TagExchange = (*Node)(nil)
