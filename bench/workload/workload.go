// Package workload generates every input the serving benchmark feeds the
// program under test — the intelligence feed, the IP population, the
// per-op choice of client and action, and the open-loop arrival schedule —
// as a pure function of one seed. Nothing here reads a clock, a random
// device, or the program's own output, so two runs with the same seed
// offer the server byte-identical traffic and a changed number can only
// come from the code that served it.
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"aipow/internal/dataset"
)

// Population sizes. The population is three times the tracker's default
// 65 536-entry capacity, so a cold pick is always a tracker miss and, once
// the tracker is full, an eviction; the hot set fits every cache.
const (
	FeedSize    = 20000
	UnknownSize = 180000
	HotSetSize  = 256
)

// FloodRate is the open-loop arrival rate of the flood workload, req/s:
// about 35 % of the two-connection closed-loop capacity measured on the
// 2 vCPU sizing sandbox, so a machine half as fast still keeps up.
const FloodRate = 6000

// BatchItems is the item count of one POST /batch body, half fresh
// decisions and half redemptions of the previous response's challenges.
const BatchItems = 256

// Spec names one workload and records why it exists; Why is carried
// verbatim into BENCHMARK.json.
type Spec struct {
	Name  string
	Shape string
	Why   string
}

// Workload names, fixed: later issues cite them.
const (
	Flood    = "flood"
	Redeem   = "redeem"
	Forged   = "forged"
	Batch    = "batch"
	Embedded = "embedded"
)

// Specs lists the workloads in the order the benchmark runs them.
var Specs = []Spec{
	{Flood, "open loop, 6000 req/s evenly spaced over nproc keep-alive connections",
		"Unsolved GET / from 200k IPs (80% cold, 20% hot): the attack the paper throttles; decide path only, verify idle, tracker at capacity and evicting."},
	{Redeem, "closed loop, nproc clients",
		"Full GET-428-solve-GET-200 exchange from 256 hot benign IPs: what a benign user feels; verify accept path with every cache hitting, no eviction."},
	{Forged, "closed loop, nproc clients, one request per op",
		"Five reject kinds (bad MAC, wrong binding, replay; wrong nonce and replay on the balloon route): rejects must not get dearer when accepts get faster."},
	{Batch, "closed loop, nproc clients, 256 items per POST",
		"POST /batch on the admin listener, 128 decisions plus 128 redemptions per body: the proxy-tier door, batch core paths, buffered evidence, JSON envelope."},
	{Embedded, "closed loop, nproc goroutines, no sockets",
		"Middleware driven in-process (challenge, 40% redeem, 15% reject): aipow code is all of the CPU here, so httpmw/core/features/puzzle changes show at full size."},
}

// DeploymentSpec is the deployment under test, in the control plane's
// text grammar: a hashcash policy2 front door, a memory-hard route, and a
// buffered redemption pipeline behind the batch door.
const DeploymentSpec = `pipeline web
  scorer dabr
  policy policy2
  source combined
  ttl 10m
pipeline mh
  scorer dabr
  policy fixed(difficulty=4)
  source combined
  ttl 10m
  puzzle balloon
pipeline bulk
  scorer dabr
  policy policy1
  source combined
  ttl 10m
  redeem
  evidence-buffer 64 1ms
route / web
route /mh mh
route /b bulk
`

// Request paths of the three routes.
const (
	PathWeb  = "/"
	PathMH   = "/mh"
	PathBulk = "/b/x"
)

// Inputs is everything generated from the seed.
type Inputs struct {
	Seed uint64

	// Key is the deployment's 32-byte HMAC key.
	Key []byte

	// Feed is the labeled intelligence feed the model is trained on and
	// the server's static store is loaded from.
	Feed []dataset.Sample

	// IPs is the whole population: the feed's NFeed addresses followed by
	// the unknown ones. Malicious[i] is the feed label of IPs[i] (false for
	// unknown addresses), so "non-malicious" is feed-benign plus unknown.
	IPs       []string
	Malicious []bool
	NFeed     int

	// Hot indexes the hot set: the HotSetSize most ordinary feed-benign
	// addresses, the ones the policy prices at its floor.
	Hot []int32

	// Perm is a seeded permutation of every index in IPs. SolverPerm is
	// Perm restricted to the unknown addresses: the cold clients that are
	// asked to solve. Feed-benign addresses outside the hot set include
	// the model's false positives, priced up to 2^15 hashes; they are
	// challenged like everyone else but never solve, or the solver — client
	// work — would be most of what every solving workload measures.
	Perm       []int32
	SolverPerm []int32
}

// Generate builds the inputs for seed.
func Generate(seed uint64) (*Inputs, error) {
	cfg := dataset.DefaultConfig()
	cfg.N = FeedSize
	cfg.Seed = seed
	feed, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("workload: generate feed: %w", err)
	}
	typical := typicalBenign(feed)
	// cmd/powserver scores clients the feed does not know by the feed's
	// first benign profile; put the most ordinary one there, so that on
	// every seed an unknown client is an ordinary client.
	feed[0], feed[typical[0]] = feed[typical[0]], feed[0]
	typical[0] = 0

	in := &Inputs{Seed: seed, Feed: feed}
	rng := rand.New(rand.NewPCG(seed, 0xA1B0C0DE))

	in.Key = make([]byte, 32)
	for i := 0; i < len(in.Key); i += 8 {
		binary.LittleEndian.PutUint64(in.Key[i:], rng.Uint64())
	}

	// dataset.RandomIPv4 never draws 10.x.y.z and may (rarely) draw one
	// address twice; keep the first occurrence so labels are unambiguous.
	index := make(map[string]int32, FeedSize)
	for _, s := range feed {
		if _, dup := index[s.IP]; dup {
			continue
		}
		index[s.IP] = int32(len(in.IPs))
		in.IPs = append(in.IPs, s.IP)
		in.Malicious = append(in.Malicious, s.Malicious)
	}
	in.NFeed = len(in.IPs)
	// Unknown addresses come from 10/8, which the feed cannot contain;
	// redraw duplicates so they are distinct.
	used := make([]uint64, 1<<24/64)
	for n := 0; n < UnknownSize; {
		low := rng.Uint32N(1 << 24)
		if used[low/64]&(1<<(low%64)) != 0 {
			continue
		}
		used[low/64] |= 1 << (low % 64)
		in.IPs = append(in.IPs, fmt.Sprintf("10.%d.%d.%d", low>>16, (low>>8)&0xff, low&0xff))
		in.Malicious = append(in.Malicious, false)
		n++
	}

	for _, f := range typical[:HotSetSize] {
		in.Hot = append(in.Hot, index[feed[f].IP])
	}
	for _, i := range rng.Perm(len(in.IPs)) {
		in.Perm = append(in.Perm, int32(i))
		if i >= in.NFeed {
			in.SolverPerm = append(in.SolverPerm, int32(i))
		}
	}
	return in, nil
}

// typicalBenign ranks the feed's benign samples from most to least
// ordinary: by how far each lies from the nearest malicious family's mean
// profile, every attribute scaled to the feed's observed range — the
// geometry a distance-based scorer prices by. The ranking reads the feed's
// labels alone, never the model under test.
func typicalBenign(feed []dataset.Sample) []int {
	attrs := dataset.Attributes()
	lo := make([]float64, len(attrs))
	hi := make([]float64, len(attrs))
	for a, attr := range attrs {
		lo[a], hi[a] = attr.Max, attr.Min
	}
	families := make(map[string][]float64) // per-family attribute sums, count last
	for _, s := range feed {
		sum := families[s.Family]
		if sum == nil {
			sum = make([]float64, len(attrs)+1)
			families[s.Family] = sum
		}
		for a, attr := range attrs {
			v := s.Attrs[attr.Name]
			sum[a] += v
			lo[a], hi[a] = min(lo[a], v), max(hi[a], v)
		}
		sum[len(attrs)]++
	}
	delete(families, "") // the benign profile

	var benign []int
	far := make(map[int]float64)
	for i, s := range feed {
		if s.Malicious {
			continue
		}
		benign = append(benign, i)
		nearest := -1.0
		for _, sum := range families {
			d2 := 0.0
			for a, attr := range attrs {
				d := (s.Attrs[attr.Name] - sum[a]/sum[len(attrs)]) / (hi[a] - lo[a])
				d2 += d * d
			}
			if nearest < 0 || d2 < nearest {
				nearest = d2
			}
		}
		far[i] = nearest
	}
	sort.Slice(benign, func(x, y int) bool {
		if far[benign[x]] != far[benign[y]] {
			return far[benign[x]] > far[benign[y]]
		}
		return benign[x] < benign[y]
	})
	return benign
}

// mix is splitmix64 over (seed, stream, i): a stateless draw, so any
// number of generator goroutines can each compute their own ops without
// sharing a random source or depending on scheduling order.
func (in *Inputs) mix(stream, i uint64) uint64 {
	z := in.Seed ^ stream*0x9E3779B97F4A7C15 ^ (i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Draw streams, one per decision so draws stay independent.
const (
	streamHot = iota + 1
	streamVisit
	streamReject
)

// HotIP returns the hot-set pick for op i.
func (in *Inputs) HotIP(i uint64) int32 {
	return in.Hot[in.mix(streamHot, i)%HotSetSize]
}

// HotOp reports whether op i of the flood mix is a hot-set op.
func HotOp(i uint64) bool { return i%5 == 4 }

// MixIP returns the client of op i in the flood mix: every fifth op comes
// from the hot set, the other four walk the seeded permutation — each a
// tracker miss. With solver the cold picks come from SolverPerm (the op
// will be asked to solve).
func (in *Inputs) MixIP(i uint64, solver bool) int32 {
	if HotOp(i) {
		return in.HotIP(i)
	}
	cold := i - i/5
	if solver {
		return in.SolverPerm[cold%uint64(len(in.SolverPerm))]
	}
	return in.Perm[cold%uint64(len(in.Perm))]
}

// Action is what one embedded visit does after its unsolved request.
type Action uint8

// Visit actions: 45 % stop at the challenge, 40 % solve and redeem, 15 %
// submit a forged solution.
const (
	ActChallenge Action = iota
	ActRedeem
	ActReject
)

// Reject kinds. The first three are hashcash rejects on the web route;
// the last two pay a memory-hard evaluation on the balloon route.
const (
	BadMAC       = "bad_mac"
	WrongBinding = "wrong_binding"
	Replay       = "replay"
	WrongNonceMH = "wrong_nonce_mh"
	ReplayMH     = "replay_mh"
)

// HashcashRejects and ForgedKinds are the cycles the embedded and forged
// workloads draw reject kinds from.
var (
	HashcashRejects = []string{BadMAC, WrongBinding, Replay}
	ForgedKinds     = []string{BadMAC, WrongBinding, Replay, WrongNonceMH, ReplayMH}
)

// Visit is one embedded-workload visit: an unsolved GET / from IP, then
// Action. Kind is set for ActReject; Other is the address a wrong-binding
// submission is presented from.
type Visit struct {
	IP     int32
	Other  int32
	Action Action
	Kind   string
}

// Visit returns visit v of the embedded stream.
func (in *Inputs) Visit(v uint64) Visit {
	vis := Visit{Action: ActChallenge}
	switch u := in.mix(streamVisit, v) % 100; {
	case u < 40:
		vis.Action = ActRedeem
	case u < 55:
		vis.Action = ActReject
		vis.Kind = HashcashRejects[in.mix(streamReject, v)%uint64(len(HashcashRejects))]
	}
	vis.IP = in.MixIP(v, vis.Action != ActChallenge)
	vis.Other = in.HotIP(v + 1)
	if vis.Other == vis.IP {
		vis.Other = in.Hot[(in.mix(streamHot, v+1)+1)%HotSetSize]
	}
	return vis
}

// Due returns when op i of an evenly spaced schedule at rate ops/s is due,
// as an offset from the schedule's start.
func Due(i uint64, rate int) time.Duration {
	return time.Duration(i * uint64(time.Second) / uint64(rate))
}

// StreamHash digests the population and the first n ops of every stream;
// equal seeds give equal hashes, which is what "same inputs" means here.
func (in *Inputs) StreamHash(n int) string {
	h := sha256.New()
	h.Write(in.Key)
	for i, ip := range in.IPs {
		fmt.Fprintf(h, "%s %t\n", ip, in.Malicious[i])
	}
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, i := range in.Hot {
		put(uint64(i))
	}
	for i := uint64(0); i < uint64(n); i++ {
		put(uint64(in.MixIP(i, false)))
		put(uint64(in.MixIP(i, true)))
		put(uint64(in.HotIP(i)))
		v := in.Visit(i)
		put(uint64(v.IP)<<32 | uint64(v.Other))
		fmt.Fprintf(h, "%d%s", v.Action, v.Kind)
		put(uint64(Due(i, FloodRate)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
