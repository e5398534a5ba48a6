// Package aipow is a policy-driven, AI-assisted Proof-of-Work (PoW)
// framework for defending servers against untrustworthy traffic, as
// proposed in:
//
//	T. Chakraborty, S. Mitra, S. Mittal, M. Young.
//	"A Policy Driven AI-Assisted PoW Framework." DSN 2022
//	(supplemental volume), arXiv:2203.10698.
//
// Classic PoW defenses make every client solve the same puzzle. This
// framework instead scores each incoming request's trustworthiness with an
// AI model over IP traffic features (a DAbR-style reputation scorer), maps
// the score to a puzzle difficulty through an administrator-chosen policy,
// and issues an HMAC-authenticated hashcash-style challenge bound to the
// client. Trustworthy clients sail through with trivial puzzles;
// untrustworthy ones pay seconds of compute per request — latency that
// throttles malicious traffic while the server spends microseconds
// verifying.
//
// # Architecture
//
// Five swappable components, assembled by New:
//
//   - Scorer — the AI model: reputation.Model (DAbR centroids), KNN, or
//     any func from attributes to a [0,10] score (10 = least trusted).
//   - Policy — score → difficulty: the paper's Policy1/Policy2/Policy3,
//     step tables, exponential curves, a text rule DSL, load-adaptive
//     wrappers.
//   - Source — per-IP attributes: static feed snapshots, live behavioral
//     tracking, or both combined.
//   - Issuer/Verifier — challenge generation and O(1) verification with
//     replay protection (managed internally by the Framework).
//
// # Quick start
//
//	fw, err := aipow.New(
//	    aipow.WithKey(secretKey),
//	    aipow.WithScorer(model),           // trained reputation model
//	    aipow.WithPolicy(aipow.Policy2()), // paper's Policy 2
//	    aipow.WithSource(store),           // per-IP attributes
//	)
//	...
//	dec, err := fw.Decide(aipow.RequestContext{IP: clientIP})
//	// send dec.Challenge to the client; later:
//	err = fw.Verify(solution, clientIP)
//
// For HTTP servers, NewHTTPMiddleware wraps any http.Handler with the full
// challenge protocol, and NewHTTPTransport makes any http.Client solve
// challenges transparently.
//
// # Runtime control plane
//
// The paper's operating model is that administrators tune defense by
// swapping policies, not redeploying code. The control plane makes the
// whole pipeline work that way, live:
//
//   - Declarative specs. A deployment spec (text DSL or JSON — see
//     SPEC.md) names each pipeline's scorer, policy (registry syntax or
//     inline rule-DSL lines), source, TTL, difficulty cap, bypass
//     threshold, and limits, plus the routes mapping request classes
//     onto pipelines. ParseDeployment compiles the document; a
//     ComponentRegistry resolves the component names (register scorers
//     and sources with RegisterScorer/RegisterSource) and owns the
//     shared HMAC key and behavior tracker.
//
//   - Atomic hot-swap. A Framework's swappable configuration — scorer,
//     policy, source, fail-closed score, bypass threshold — lives in an
//     immutable snapshot behind an atomic pointer. Decide loads the
//     snapshot once per request; Framework.Swap (and the SwapPolicy /
//     SwapScorer conveniences, or spec-level Pipeline.Apply) installs a
//     new snapshot RCU-style. Swapping mid-attack costs the serving path
//     nothing: Decide stays 0 allocs/op at an unchanged ns/op while a
//     background goroutine applies swaps in a loop (the gated
//     DecideUnderSwap benchmark), and requests in flight finish on the
//     configuration they loaded — never a torn mix. The issuer/verifier
//     (key, TTL, replay cache) and tracker persist across swaps, so
//     in-flight challenges stay redeemable and behavioral history stays
//     warm.
//
//   - Per-route pipelines. A Gatekeeper compiles a multi-pipeline
//     deployment and routes each request — by longest path prefix, or by
//     tenant key via WithTenantHeader — onto its pipeline, all sharing
//     one behavior tracker while each signs challenges with its own
//     name-derived key (a cheap solve on a lenient route cannot be
//     redeemed on a stricter one). NewRoutedHTTPMiddleware plugs it into any
//     http.Handler; Gatekeeper.Apply reconfigures the whole deployment
//     declaratively (hot-swapping pipelines where only swappable fields
//     changed, rebuilding where limits changed) with an atomic
//     route-table switch. cmd/powserver boots from -spec, re-applies the
//     file on SIGHUP, and exposes POST /apply, GET /spec, and GET /stats
//     on the -admin listener.
//
// The attacksim suite's policy-flip scenario regression-tests the
// operator move the paper implies (policy1 → policy2 mid-pulse):
// attacker difficulty must rise after the swap while legitimate median
// latency stays bounded, deterministically.
//
// # Adaptive feedback
//
// The paper's policies react to observed behavior and load; the feedback
// subsystem closes that loop without an operator in it. A pipeline spec
// may carry an `adapt` section (AdaptSpec; `adapt …` lines in the text
// DSL) declaring an escalation ladder in the shared component-spec
// syntax:
//
//	adapt capacity 400
//	adapt escalate(when=rate>60, policy=policy2, hold=10s, after=2)
//
// Two halves make the loop:
//
//   - Signal plane. Each controller step polls the pipeline's cumulative
//     atomic counters — no locks, allocations, or extra work on the
//     Decide/Verify hot path (the gated DecideUnderAdapt benchmark pins
//     0 allocs/op with the loop running) — and derives windowed
//     estimates: an EWMA request rate, load (rate over declared
//     capacity, also feeding load-shifted policies — the spec-addressable
//     form of NewLoadAdaptivePolicy), verify-failure ratio, the
//     per-pipeline difficulty distribution with quantiles, and
//     hard_solve_frac, a false-positive proxy: the fraction of hard
//     challenges that get solved. Misscored legitimate clients dutifully
//     solve expensive puzzles; rational bots walk away — so a volume
//     spike whose hard puzzles keep getting solved is a flash crowd, not
//     an attack, and a rule can gate on it ("unless=hard_solve_frac>0.35").
//
//   - Controller. Rules form a ladder: the controller escalates to the
//     highest level whose condition has held for its activation delay
//     (after), installing that level's policy through the same RCU
//     hot-swap path /apply uses, and de-escalates one level per step
//     only after the level's condition has been false for its hold time
//     — hysteresis that keeps a pulsing attacker from flapping the
//     policy. Operator applies always win: a changed spec resets the
//     controller to base, and the gatekeeper's bounded spec history
//     (GET /spec/history, POST /rollback) is the safety net under the
//     autonomous loop.
//
// powserver runs the loop under -adapt (controller state appears under
// the adapt.* keys of GET /stats); the attacksim suite's adaptive
// scenarios gate the behavior in CI — attack-onset escalation within a
// declared tick bound, post-attack de-escalation, FP-gated
// non-escalation of a benign flash crowd, a flap-guard bound on swap
// counts, a verify_fail_rate-triggered rung against a real-crypto
// forged-solution flood, and a three-rung production ladder —
// deterministically, byte-identical across reruns.
//
// # Scoring verdicts & redemption
//
// A reputation score alone says how malicious a client looks; it cannot
// say how sure the model is, and the DAbR scorer's ~15% benign false
// positives used to pay the worst-case difficulty for as long as the
// feed misjudged them. The scoring contract is therefore a calibrated
// verdict, and good behavior feeds back into it:
//
//   - Verdicts. Scorers implementing VerdictScorer return
//     Verdict{Score, Confidence}: the reputation model calibrates
//     confidence from cluster margin (relative distance between the
//     malicious and benign training regions — false positives live in
//     the overlap, where the margin collapses) and decision-boundary
//     separation; the kNN scorer uses neighbourhood unanimity. Plain
//     scorers and fail-closed substitutions score at confidence 1 —
//     exactly the pre-verdict behavior.
//
//   - Shaping. NewConfidenceShapedPolicy (spec form
//     "shape(inner=policy2, anchor=5, floor=0.5)", usable anywhere a
//     policy spec is — including adapt escalation rungs) charges full
//     difficulty only when score and confidence are both high: scores
//     above the anchor are shaded toward it in proportion to lost
//     confidence, bounded by the floor (at the defaults, at most 2.5
//     difficulty levels — Policy 3's ε, spent directionally and
//     deterministically instead of as a uniform random draw). Scores at
//     or below the anchor never move: uncertainty about a good client
//     cannot raise its price. The framework computes the verdict only
//     when the active policy consumes it, so plain deployments pay
//     nothing.
//
//   - Redemption. Framework.Verify writes verification outcomes back
//     into the behavior tracker as evidence: solved difficulties accrue
//     into a half-life-decayed solve credit, failures extend a fail
//     streak. NewRedemptionScorer wraps the static model and attenuates
//     its score (bounded, saturating in credit) for IPs whose evidence
//     says they keep paying and behaving — modest rate and spacing, no
//     4xx history, no failed verifications. A misscored benign client
//     earns its way out of the false-positive tail in a handful of
//     solves; an attacker can only buy the same discount by paying the
//     full toll continuously at a gentle rate, and any live suspicion
//     (flooding, probing, forging) cancels it. Live rate-based scoring
//     layers outside the wrapper, so a currently-flooding client keeps
//     its behavioral price regardless of credit.
//
// The fp-redemption simulation scenario gates the outcome in CI: a
// misscored benign population's mean difficulty and per-request cost
// must fall after sustained verified solves, while the canonical attack
// scenarios' mean work_ratio floors — raised to at least twice their
// pre-redemption values — pin that attackers gained nothing. The gated
// DecideWithEvidence benchmark holds the whole loop (Observe + verdict
// Decide + Verify with evidence write-back) at 0 allocs/op.
//
// # Puzzle backends
//
// A difficulty level is only as meaningful as the function it prices, and
// hashcash's SHA-256 search is exactly what GPU mining hardware is built
// for: a discounted attacker solves the same bits thousands of times
// cheaper than the phone-class clients the policy was calibrated against.
// The puzzle layer is therefore built around a Backend — the puzzle
// function, its wire format, its difficulty semantics, and a cost model
// (work and memory per attempt) that policies and simulations price
// attackers with:
//
//   - Hashcash (the default, Hashcash / NewHashcash) is the paper's
//     CPU-bound construction, carried bit-for-bit in the original
//     Version1 token format: tokens issued before backends existed keep
//     verifying, and the Decide/Issue/Verify hot path is unchanged —
//     0 allocs/op at the same ns/op.
//   - Balloon (NewBalloon) is self-contained memory-hard balloon
//     hashing in the Version2 format: each attempt fills a space-block
//     buffer and mixes it with data-dependent reads, so attempts cost
//     memory bandwidth — the resource parallel silicon discounts least.
//
// Select a backend per framework with WithPuzzleBackend, per pipeline
// with the spec line "puzzle balloon(space=256, time=2)" (see SPEC.md),
// or parse the shared grammar with ParseBackendSpec. The two wire
// formats authenticate in disjoint HMAC domains and the verifier pins
// its backend, so a Version2 balloon challenge re-encoded as a cheap
// Version1 hashcash token is rejected (ErrBadVersion) and solutions
// never redeem across backends or routes — downgrade attacks fail
// closed. One Solver serves both: it dispatches on the token's version
// and backend ID (WithSolverWorkers parallelizes either search), so
// clients follow a backend change with no configuration. The backend is
// issuance state like ttl: changing it rebuilds the pipeline rather
// than hot-swapping. The attacksim suite gates the economics — a
// GPU-discounted botnet collapses the hashcash work asymmetry
// (gpu-botnet-hashcash), the balloon backend restores it under the same
// policy (gpu-botnet-balloon), and cross-backend-replay pins the
// downgrade rejection with real crypto.
//
// # Performance
//
// The serving hot path (Decide and Verify) is allocation-free and
// lock-striped, sized for millions of concurrent clients:
//
//   - One interned-vector contract. A Scorer publishes an
//     AttributeSchema (its attribute names interned to vector slots) and
//     scores flat []float64 vectors in that layout; an AttributeSource
//     fills such a vector and reports which slots it covered. That is
//     the only shape the framework speaks: New pools the scratch rows,
//     Decide and DecideBatch run every row through one kernel, and a row
//     the source could not fully cover is never scored — the decision
//     fails closed with an error naming the missing attributes. A scorer
//     without a schema (more than 64 attributes) is refused by New.
//     Map-shaped code enters at the edge through two adapters,
//     NewMapScorer (declared attribute names + a func over a map) and
//     SourceFromMap (anything with Attributes(ip, now) map); they build
//     their map per request, and nothing downstream knows. Offline
//     callers score a map through any Scorer with ScoreAttributes.
//   - Sharded tracker. The behavior tracker stripes its per-IP state
//     across power-of-two shards (FNV-1a on the IP), each with its own
//     mutex, entries map, and LRU list, so concurrent Observe and
//     attribute-fill calls do not serialize on one lock.
//     WithTrackerShards overrides the auto-sizing.
//   - Pooled crypto state. Challenge issuance and verification reuse
//     keyed HMAC instances and encode buffers from pools: zero
//     allocations per Issue and per Verify in steady state. The replay
//     cache sweeps expired seeds incrementally to bound lock hold times.
//   - Pre-resolved counters. The framework's six stat counters are
//     resolved to atomic counters once at New time, never through the
//     registry's map on the request path.
//
// Benchmarks cover each stage (BenchmarkAsymmetry*) and the parallel
// serving shape (BenchmarkDecideParallel, BenchmarkVerifyParallel):
//
//	go test -bench=. -benchmem
//
// and `go run ./cmd/benchdump` writes the hot-path numbers to
// BENCH_hotpath.json for regression tracking across changes (compare runs
// with benchstat; -runs N keeps the fastest of N repeats). In CI,
// `benchdump -compare BENCH_hotpath.json -max-regress 20%` fails the
// build when a gated benchmark allocates at all or slows down beyond the
// tolerance — or when a within-run ratio gate fails: the full
// evidence-carrying stack (DecideWithEvidence) beyond 2x plain Decide,
// the traced path (DecideTraced) beyond 5% of plain Decide, or the
// batch path (DecideBatch) not beating the single-op evidence path per
// request.
//
// # Capacity & memory
//
// Tracking a million clients is a memory-layout problem before it is an
// algorithmic one. The behavior tracker therefore stores per-IP state in
// per-shard slab arenas: each entry is one fixed-size record in a
// []entrySlot backing array, addressed by uint32 index. The sliding
// request/failure windows are inline float32 rings (the tracker only
// ever adds 1, exact in float32 far beyond any per-bucket count), the
// LRU is intrusive prev/next indices threaded through the records, the
// first four distinct paths sit in an inline open-addressed table, and
// evicted slots recycle through an intrusive freelist. The only
// per-entry heap allocation left is the IP string itself, shared with
// the shard index map's key.
//
// Measured at one million tracked IPs (the capacity section of
// `go run ./cmd/benchdump`, go1.24, linux/amd64): the slab layout
// holds 653 bytes and 1.0 GC-visible heap objects per tracked IP, down
// from 1237 bytes and 11.0 objects per IP for the previous
// pointer-per-entry layout — 47% less memory and 11× fewer objects for
// the garbage collector to trace on every cycle. cmd/benchdump measures
// this on every run and its -compare gate fails CI when bytes/IP
// exceeds a fixed ceiling (750) or regresses against the baseline
// dump; eviction churn at full capacity and the delta-versus-full
// frame-encode ratio (see the distributed defense plane) are gated the
// same way.
//
// # Batch serving & evidence buffering
//
// Front-line proxies and load balancers rarely hold one request at a
// time; they drain accept queues. The batch entry points let such
// callers amortize the per-request fixed costs — snapshot load, clock
// read, scratch checkout — across a whole queue drain:
//
//   - Framework.DecideBatch scores and prices a slice of
//     RequestContexts against one configuration snapshot and one
//     timestamp, appending into a caller-owned []Decision (zero
//     allocations in steady state, like Decide). ObserveBatch and
//     VerifyBatch batch the evidence half the same way. Batching
//     changes cost, never outcomes: each item's decision is identical
//     to what the single-op call would have produced, a property the
//     simulation engine gates byte-for-byte (attacksim -batch drives
//     the whole adversarial suite through the batch path and CI
//     compares the reports, including under a multi-core GOMAXPROCS).
//   - NewHTTPBatchHandler / NewRoutedHTTPBatchHandler expose the same
//     front door over HTTP: one POST /batch body carries many items
//     (decide requests and solution redemptions, mixed), each item is
//     routed to its pipeline, and results return in request order.
//     Because the handler trusts caller-supplied client IPs, powserver
//     mounts it on the admin listener behind the bearer token, not on
//     the public mux.
//   - Evidence write-back buffering (WithEvidenceBuffer, spec line
//     "evidence-buffer <size> <interval>") moves tracker writes off the
//     Verify hot path: events queue in per-shard buffers and apply in
//     batches — when a shard's queue reaches the size limit, or when
//     the framework's flush loop fires each interval. Buffered events
//     carry capture-time timestamps, so applied state is bit-identical
//     to synchronous writes; only visibility latency changes, bounded
//     by the interval. Framework.Close stops the flush loop and drains
//     the buffers (Gatekeeper.Close and pipeline rebuilds do this for
//     spec-built pipelines); after Close, writes degrade to synchronous.
//   - Snapshot-cached redemption reads (WithSummaryStaleness): the
//     tracker caches each IP's computed behavior summary — the vector
//     the redemption scorer and live sources read — keyed on the
//     entry's evidence generation, serving it while younger than the
//     staleness bound. Observations alone do not invalidate (that is
//     exactly the tolerated staleness); every applied verification
//     outcome bumps the generation, so redemption-relevant changes are
//     visible immediately.
//
// Together these close the evidence-path gap: the gated
// DecideWithEvidence benchmark (the full Observe + verdict Decide +
// Verify + write-back loop) runs within 2x plain Decide, and
// DecideBatch under it, all at 0 allocs/op.
//
// # Distributed defense plane
//
// A single node defends with what it alone has seen. The cluster plane
// makes a fleet defend with what the *fleet* has seen — without a
// coordinator, a quorum, or any network call on the serving path. A
// pipeline whose spec carries a cluster statement
//
//	pipeline edge
//	  scorer dabr
//	  policy policy1
//	  cluster peers(http://10.0.0.2:9100/cluster/edge) exchange(1s)
//
// owns a ClusterNode that periodically pulls compact state frames from
// its peers and merges three planes of fleet knowledge:
//
//   - Replay suppression. Redeemed-token tags enter a time-bucketed
//     rotating Bloom ring that gossips fleet-wide, so a token solved
//     honestly on one node redeems exactly once anywhere: replaying it
//     against a different node hits the merged filter and is rejected
//     (fail-closed), at a declared worst-case false-positive rate and
//     bounded memory. The serving-path check is a pure in-memory probe
//     at 0 allocs/op.
//   - Reputation gossip. Behavior-tracker digests — evidence credit and
//     fail counters as monotone or decayed sums — merge CRDT-style:
//     commutative, associative, idempotent (property-tested), so merge
//     order, duplicated delivery, and relay topology cannot change the
//     result. An attacker burned on one node is expensive everywhere.
//   - Fleet feedback. Peer serving counters fold into a summed feedback
//     source, so adapt ladders escalate on cluster-wide rate. A botnet
//     striping across K nodes keeps every per-node rate under the
//     threshold; only the fleet sum crosses it.
//
// Peers are a partial view: frames carry relayed peer sections, so
// gossip converges transitively over rings and sparse meshes at the
// cost of one exchange interval per hop — bounded staleness, declared
// in the spec. powserver serves frames at GET /cluster/<pipeline> via
// -cluster-listen; standalone deployments (no cluster statement) are
// byte-for-byte unaffected.
//
// Evidence gossip scales by shipping deltas: every evidence change
// stamps a monotone per-tracker sequence, and a puller presents its last
// watermark to receive only the rows that changed since — at steady
// state a frame carries the churn of one exchange interval, not the
// whole tracked population. A `delta(every=K)` clause in the cluster
// statement turns this on, with every Kth pull forced to a full frame as
// anti-entropy; dirty-log overflow or an unknown watermark also degrade
// to a full frame, so a consumer can never silently miss rows, and the
// merged CRDT state is byte-identical either way (pinned by the sim
// suite running clustered scenarios in both modes). The sim suite's cluster quartet pins the
// semantics: the striping pair (fleet feedback detects what per-node
// feedback provably cannot), cross-node replay redeeming zero times,
// and a ring topology trading one relay hop of detection latency.
//
// # Observability
//
// A defense that escalates, swaps policies, and gossips fleet state on
// its own needs to be watchable in production without taxing the path
// it watches. The observability plane covers four layers, all
// dependency-free:
//
//   - Prometheus exposition. Gatekeeper.ExpositionInto renders every
//     pipeline's counters, serving-path latency histograms, trace and
//     adapt state, and cluster figures as Prometheus text format
//     (version 0.0.4) via the hand-rolled Exposition encoder, labeled
//     {pipeline, node}. powserver serves it at GET /metrics on the
//     admin listener (unauthenticated — aggregate data, scrapers rarely
//     carry tokens) and -pprof additionally mounts net/http/pprof.
//     ValidateExposition checks scraped output — family structure,
//     name syntax, histogram bucket monotonicity — and the CI obs job
//     runs live scrapes through it, twice, asserting monotonicity.
//   - Serving-path latency histograms. Every Framework carries
//     allocation-free atomic log-bucketed histograms over the Decide
//     and Verify stages (AtomicHistogram: power-of-two buckets, lock-free
//     Observe, snapshot reads). Always on — the gated hot-path
//     benchmarks hold 0 allocs/op with them counting.
//   - Sampled decision tracing. The spec line "observe
//     trace(sample=1024, ring=256)" — hot-swappable, like a policy —
//     samples one decision in N into a lock-free TraceRing of
//     fixed-size TraceSamples: client hash, score, confidence, chosen
//     difficulty, adapt rung, redemption credit, per-stage nanosecond
//     timings. The unsampled path costs one atomic increment and one
//     branch (the gated DecideTraced benchmark pins the whole thing
//     within 5% of plain Decide at 0 allocs/op). GET /trace exports
//     the rings as JSON, behind the admin bearer token.
//   - Defense event log. State transitions that matter during an
//     incident — adapt escalations and de-escalations with the signal
//     readings that tripped them, spec applies and rollbacks, cluster
//     peer joins and stalenesses, evidence flush stalls — append to a
//     bounded EventLog (WithRegistryEvents wires it through every
//     layer), exported at GET /events and mirrored into simulation
//     reports, where the adapt-event-log scenario asserts the exact
//     escalate → hold → de-escalate sequence deterministically.
//
// # Simulation & scenario regression
//
// The paper's central claim is economic asymmetry: legitimate clients pay
// near-zero compute while attackers pay super-linearly. internal/sim pins
// that claim down empirically with a deterministic adversarial scenario
// engine that drives a real Framework — concurrently, over the sharded
// tracker — with declaratively-defined traffic mixes:
//
//	sim.Scenario{
//	    Phases: []sim.Phase{            // a timeline of named windows
//	        {Name: "warmup", Duration: 30 * time.Second},
//	        {Name: "strike", Duration: 30 * time.Second,
//	            RateScale: map[string]float64{"bots": 40}},  // 40x surge
//	    },
//	    Populations: []sim.Population{  // concurrent client groups
//	        {Name: "users", Legit: true, Clients: 100, Rate: 0.3,
//	            Behavior: sim.BehaviorSolve, Feed: sim.FeedBenign, ...},
//	        {Name: "bots", Clients: 200, Rate: 0.2,
//	            Behavior: sim.BehaviorSolve, Feed: sim.FeedUnknown,
//	            IPPool: 4000, RotateEvery: 10 * time.Second, ...},
//	    },
//	    Invariants: []sim.Invariant{    // the asymmetry bounds CI gates on
//	        sim.AtLeast(sim.MetricWorkRatioP50, "", "", 12),
//	        sim.AtMost(sim.MetricLatencyP90, "users", "", 800),
//	    },
//	}
//
// Time is simulated (NewSimulatedClock plugs into WithClock), every random
// draw is position-seeded, and per-worker results merge in fixed order, so
// equal seeds produce byte-identical reports regardless of GOMAXPROCS.
// Solving is modeled as the real solver's geometric process; RealSolve
// scenarios additionally perform genuine nonce searches redeemed through
// Verify.
//
// The canonical scenario suite (steady state, flash crowd, pulsing
// botnet, rotating-IP botnet, slow-and-low probing, reputation-poisoning
// warmup, challenge dodging, mid-campaign policy flip, real-crypto smoke,
// the adaptive-feedback ladder, the redemption pair, the puzzle-backend
// trio, the K-node cluster quartet, and the defense event-log sequence
// check) runs via:
//
//	go run ./cmd/attacksim -json          # writes SIM_scenarios.json
//	go run ./cmd/attacksim -json -quick   # CI scale
//
// Each scenario's report carries per-population, per-phase outcomes
// (served fraction, goodput, difficulty and latency histograms, modeled
// hash cost) plus every invariant's measured value and verdict; the
// process exits non-zero on any violation, which is the CI gate. The same
// suite runs in `go test ./internal/sim` as a scenario-table regression
// test. For queueing-collapse comparisons across defenses (adaptive vs.
// fixed vs. no-PoW), see `powexp attack` on the netsim event loop.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package aipow
