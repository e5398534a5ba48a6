package cluster

import (
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aipow/internal/features"
	"aipow/internal/feedback"
	"aipow/internal/obs"
)

// fakeSource is a settable local-counter source.
type fakeSource struct {
	counters map[string]float64
	issued   map[int]uint64
}

func (f *fakeSource) StatsInto(dst map[string]float64) {
	for k, v := range f.counters {
		dst[k] = v
	}
}

func (f *fakeSource) DifficultyProfileInto(issued, verified []uint64) {
	for i := range issued {
		issued[i] = 0
	}
	for i := range verified {
		verified[i] = 0
	}
	for d, c := range f.issued {
		if d < len(issued) {
			issued[d] = c
		}
	}
}

func testNode(t *testing.T, origin string) *Node {
	t.Helper()
	n, err := NewNode(Config{
		Origin:     origin,
		FilterBits: 1 << 14,
		Retain:     30 * time.Second,
		Now:        func() time.Time { return bloomEpoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeCrossNodeReplaySuppression(t *testing.T) {
	a := testNode(t, "a")
	b := testNode(t, "b")
	tag := testTag(99)

	a.RedeemedTag(tag, bloomEpoch)
	if !a.SeenTag(tag) {
		t.Fatal("redeeming node forgot its own tag")
	}
	if b.SeenTag(tag) {
		t.Fatal("tag known before any exchange")
	}
	b.ExchangeWith(a)
	if !b.SeenTag(tag) {
		t.Fatal("tag did not propagate on exchange")
	}
	if b.Stats().FilterHits == 0 {
		t.Fatal("filter hit not counted")
	}
}

func TestNodeCounterGossipAndRelay(t *testing.T) {
	a := testNode(t, "a")
	b := testNode(t, "b")
	c := testNode(t, "c")
	a.BindLocal(&fakeSource{counters: map[string]float64{"issued": 100, "verified": 60}, issued: map[int]uint64{8: 100}}, nil)
	b.BindLocal(&fakeSource{counters: map[string]float64{"issued": 40}}, nil)

	// b learns a directly; c only ever talks to b and learns a by relay.
	b.ExchangeWith(a)
	c.ExchangeWith(b)

	dst := map[string]float64{}
	c.PeerSource().StatsInto(dst)
	if dst["issued"] != 140 || dst["verified"] != 60 {
		t.Fatalf("relayed peer counters = %v, want issued 140 verified 60", dst)
	}
	var issued, verified [64]uint64
	c.PeerSource().DifficultyProfileInto(issued[:], verified[:])
	if issued[8] != 100 {
		t.Fatalf("relayed difficulty profile issued[8] = %d, want 100", issued[8])
	}

	// Absorbing the same state again changes nothing (idempotent), and
	// counters only move forward (monotone max).
	c.ExchangeWith(b)
	clear(dst)
	c.PeerSource().StatsInto(dst)
	if dst["issued"] != 140 {
		t.Fatalf("re-exchange changed counters: %v", dst)
	}

	// A stale relay cannot roll counters back: feed c an old frame for a.
	c.Absorb(&Frame{Origins: []OriginSection{{Origin: "a", Counters: map[string]float64{"issued": 10}}}})
	clear(dst)
	c.PeerSource().StatsInto(dst)
	if dst["issued"] != 140 {
		t.Fatalf("stale frame rolled counters back: %v", dst)
	}
}

func TestNodeEvidenceGossip(t *testing.T) {
	ta, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := features.NewTracker()
	if err != nil {
		t.Fatal(err)
	}
	a := testNode(t, "a")
	b := testNode(t, "b")
	a.BindLocal(nil, ta)
	b.BindLocal(nil, tb)

	ta.RecordVerify("198.51.100.9", 12, true, bloomEpoch)
	b.ExchangeWith(a)
	rows := tb.ExportEvidence(nil, 0)
	if len(rows) != 1 || rows[0].IP != "198.51.100.9" || rows[0].SolveCredit <= 0 {
		t.Fatalf("evidence did not gossip: %+v", rows)
	}
	// And back: the echo is harmless.
	before := ta.ExportEvidence(nil, 0)
	a.ExchangeWith(b)
	after := ta.ExportEvidence(nil, 0)
	if len(before) != len(after) || !rowsEqual(before[0], after[0]) {
		t.Fatalf("gossip echo changed evidence: %+v → %+v", before, after)
	}
}

func TestNodeIgnoresSectionsAboutItself(t *testing.T) {
	a := testNode(t, "a")
	a.Absorb(&Frame{Origins: []OriginSection{{Origin: "a", Counters: map[string]float64{"issued": 1e9}}}})
	dst := map[string]float64{}
	a.PeerSource().StatsInto(dst)
	if dst["issued"] != 0 {
		t.Fatalf("node absorbed a section about itself: %v", dst)
	}
}

func TestNodeBoundsPeerOrigins(t *testing.T) {
	a := testNode(t, "a")
	f := &Frame{}
	for i := 0; i < maxPeerOrigins+20; i++ {
		f.Origins = append(f.Origins, OriginSection{
			Origin:   strings.Repeat("x", 1+i%5) + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Counters: map[string]float64{"issued": 1},
		})
	}
	a.Absorb(f)
	if got := a.Stats().Peers; got > maxPeerOrigins {
		t.Fatalf("peer map grew to %d, bound is %d", got, maxPeerOrigins)
	}
}

func TestNodeSeenTagZeroAllocs(t *testing.T) {
	a := testNode(t, "a")
	hit := testTag(1)
	miss := testTag(2)
	a.RedeemedTag(hit, bloomEpoch)
	if allocs := testing.AllocsPerRun(1000, func() {
		a.SeenTag(hit)
		a.SeenTag(miss)
	}); allocs != 0 {
		t.Fatalf("SeenTag allocates %.1f/op on the serving path", allocs)
	}
}

// frameFetcher serves a fixed peer's live frames in-process.
type frameFetcher struct{ peer *Node }

func (f frameFetcher) Fetch() (*Frame, error) { return f.peer.Frame(), nil }

type failingFetcher struct{}

func (failingFetcher) Fetch() (*Frame, error) { return nil, errors.New("peer down") }

func TestNodeRunExchangesAndCloses(t *testing.T) {
	before := runtime.NumGoroutine()
	a, err := NewNode(Config{Origin: "a", FilterBits: 1 << 14, Exchange: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b := testNode(t, "b")
	b.BindLocal(&fakeSource{counters: map[string]float64{"issued": 7}}, nil)

	if err := a.Run([]Fetcher{frameFetcher{peer: b}, failingFetcher{}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Run(nil); err == nil {
		t.Fatal("second Run accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := a.Stats()
		if s.Exchanges > 0 && s.AbsorbErrs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exchange loop made no progress: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	dst := map[string]float64{}
	a.PeerSource().StatsInto(dst)
	if dst["issued"] != 7 {
		t.Fatalf("Run-loop exchange did not absorb counters: %v", dst)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
	// The loop goroutine must be gone.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before Run, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNodeCloseWithoutRun(t *testing.T) {
	a := testNode(t, "a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeHTTPExchange(t *testing.T) {
	key := []byte("frame-signing-key-0123456789abcd")
	a, err := NewNode(Config{Origin: "a", FilterBits: 1 << 14, Key: key, Now: func() time.Time { return bloomEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{Origin: "b", FilterBits: 1 << 14, Key: key, Now: func() time.Time { return bloomEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	tag := testTag(5)
	a.RedeemedTag(tag, bloomEpoch)
	a.BindLocal(&fakeSource{counters: map[string]float64{"issued": 11}}, nil)

	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	fetchers := NewHTTPFetchers([]string{srv.URL}, key, time.Second, 0)
	f, err := fetchers[0].Fetch()
	if err != nil {
		t.Fatal(err)
	}
	b.Absorb(f)
	if !b.SeenTag(tag) {
		t.Fatal("tag did not survive the HTTP wire")
	}
	dst := map[string]float64{}
	b.PeerSource().StatsInto(dst)
	if dst["issued"] != 11 {
		t.Fatalf("counters did not survive the HTTP wire: %v", dst)
	}

	// A fetcher keyed differently rejects the frame: fail closed.
	bad := NewHTTPFetchers([]string{srv.URL}, []byte("other-signing-key-0123456789abcd"), time.Second, 0)
	if _, err := bad[0].Fetch(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("mis-keyed fetch accepted: %v", err)
	}
}

var _ feedback.Source = (*fakeSource)(nil)

// flakyFetcher errors while fail is set, serving its node's frame
// otherwise.
type flakyFetcher struct {
	node *Node
	fail bool
}

func (f *flakyFetcher) Fetch() (*Frame, error) {
	if f.fail {
		return nil, errors.New("partitioned")
	}
	return f.node.Frame(), nil
}

func TestNodeMembershipEvents(t *testing.T) {
	var events []obs.Event
	a, err := NewNode(Config{
		Origin: "a",
		Now:    func() time.Time { return bloomEpoch },
		Events: func(e obs.Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{Origin: "b", Now: func() time.Time { return bloomEpoch }})
	if err != nil {
		t.Fatal(err)
	}
	b.BindLocal(&fakeSource{counters: map[string]float64{"issued": 1}}, nil)

	fetch := &flakyFetcher{node: b}
	failing := make([]bool, 1)

	// First round succeeds: the unknown origin joins, exactly once.
	a.exchangeOnce([]Fetcher{fetch}, failing)
	a.exchangeOnce([]Fetcher{fetch}, failing)
	if len(events) != 1 {
		t.Fatalf("events after two healthy rounds = %+v, want one peer_join", events)
	}
	if e := events[0]; e.Kind != obs.EventPeerJoin || e.Node != "a" || e.Detail != "b" {
		t.Errorf("join event = %+v", e)
	}

	// Partition: stale fires on the first failed round only.
	fetch.fail = true
	a.exchangeOnce([]Fetcher{fetch}, failing)
	a.exchangeOnce([]Fetcher{fetch}, failing)
	if len(events) != 2 {
		t.Fatalf("events after partition = %+v, want join+stale", events)
	}
	if e := events[1]; e.Kind != obs.EventPeerStale || e.Node != "a" || e.Detail != "peer[0]" {
		t.Errorf("stale event = %+v", e)
	}

	// Heal, then re-partition: the edge fires again.
	fetch.fail = false
	a.exchangeOnce([]Fetcher{fetch}, failing)
	fetch.fail = true
	a.exchangeOnce([]Fetcher{fetch}, failing)
	if len(events) != 3 || events[2].Kind != obs.EventPeerStale {
		t.Fatalf("events after heal+re-partition = %+v, want a second stale", events)
	}
	if got := a.Stats().AbsorbErrs; got != 3 {
		t.Errorf("absorb errors = %d, want 3", got)
	}
}
