// Command powserver runs an HTTP server protected by the AI-assisted PoW
// framework, driven by the runtime control plane. With no flags it
// synthesizes an intelligence feed, trains the reputation model, wires a
// single-pipeline deployment from the -policy flag, and serves a demo
// endpoint on :8080. A client the feed does not know is scored by the
// feed's median benign profile, as in every simulated scenario:
//
//	powserver
//	powserver -addr :9000 -policy 'policy3(epsilon=2.5)'
//	powserver -feed feed.csv -model model.json -key $(openssl rand -hex 32)
//	powserver -spec deploy.spec -admin 127.0.0.1:8081
//
// With -spec the whole deployment — per-route pipelines, policies,
// scorers, limits — comes from a declarative spec file (see SPEC.md for
// the grammar). The deployment reconfigures live, without dropping a
// request, through either channel:
//
//   - SIGHUP re-reads the -spec file and applies it;
//   - the -admin listener accepts POST /apply with a spec body, and
//     serves GET /spec (current deployment), GET /spec/history (the last
//     applied generations), POST /rollback (revert to the previous
//     generation), and GET /stats (per-pipeline counters, including
//     adapt.* controller state).
//
// The same listener is the observability plane: GET /metrics serves the
// whole deployment in Prometheus text exposition format (serving
// counters, per-stage latency histograms, adapt and cluster state, every
// series labeled with the pipeline and this node's name), GET /trace
// serves the sampled decision traces of pipelines with an `observe
// trace(...)` spec line, and GET /events serves the defense event log
// (adapt escalations with the tripping signal value, spec
// applies/rollbacks, cluster membership changes, evidence flush stalls).
// /trace and /events carry per-client and posture detail, so they demand
// the -admin-token; /metrics stays open for scrapers. -pprof additionally
// mounts net/http/pprof under /debug/pprof/.
//
// With -adapt the server also runs the feedback controllers declared in
// the spec's `adapt` sections: live signal estimation (request rate,
// verify failures, difficulty distribution, the hard-solve FP proxy)
// driving automatic policy escalation and de-escalation through the same
// hot-swap path /apply uses. Without the flag, adapt sections are parsed
// and validated but stay dormant.
//
// -admin-token protects the mutating admin endpoints (POST /apply, POST
// /rollback) with a constant-time bearer check; read endpoints stay open
// for scrapers. Without a token the admin listener is fully open — bind
// it privately. POST /batch alternatively accepts per-request signed
// proxy headers (X-AIPoW-Client-IP + timestamp + signature under a key
// derived from -key), so the proxy tier never holds the admin token.
//
// Fleet deployments add two flags: -node-id names this node's gossip
// origin (default: the hostname), and -cluster-listen serves GET
// /cluster/<pipeline> state frames for peers whose specs name this node
// in a `cluster peers(...)` statement. Single-node deployments without
// cluster sections are byte-for-byte unaffected.
//
// Spec-named components: scorers "dabr" (the trained reputation model),
// "rate(saturation=N)" (kaPoW-style request-rate scorer) and
// "hybrid(inner=dabr, saturation=N)" (the maximum of the two); sources
// "feed" (static store), "tracker" (live behavior), "combined" (both).
//
// Endpoints: every path is protected; GET /healthz is exempt.
//
// Once the feed, the model and the deployment are loaded, powserver binds
// every listener and writes one ready line to stdout with the bound
// addresses ("-" for a listener that is off), so a caller can pass port 0
// and read back the ports it got:
//
//	ready public=127.0.0.1:41873 admin=127.0.0.1:40211 cluster=-
package main

import (
	"cmp"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"aipow"
	"aipow/internal/control"
	"aipow/internal/dataset"
	"aipow/internal/reputation"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	adminAddr := flag.String("admin", "", "control-plane listen address (empty disables; bind privately)")
	adminToken := flag.String("admin-token", "", "bearer token required on mutating admin endpoints (empty leaves them open)")
	adapt := flag.Bool("adapt", false, "run the feedback controllers declared in the spec's adapt sections")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin listener")
	specPath := flag.String("spec", "", "deployment spec file (text DSL or JSON; overrides -policy/-bypass)")
	policySpec := flag.String("policy", "policy2", "policy spec for the default single-pipeline deployment")
	keyHex := flag.String("key", "", "hex HMAC key (≥32 hex chars); random demo key when empty")
	feedPath := flag.String("feed", "", "IP attribute feed CSV (dabr generate); unknown clients are scored by its median benign profile; synthetic demo feed when empty")
	modelPath := flag.String("model", "", "trained model JSON (dabr train); trains on the feed when empty")
	bypass := flag.Float64("bypass", -1, "bypass puzzles for scores below this (negative disables)")
	trustHeader := flag.String("trust-ip-header", "", "trust this header for client IPs (behind a proxy only)")
	tenantHeader := flag.String("tenant-header", "", "trust this header as the tenant routing key (behind a proxy only)")
	nodeID := flag.String("node-id", "", "this node's cluster origin name (default: the hostname)")
	clusterListen := flag.String("cluster-listen", "", "peer-exchange listen address serving GET /cluster/<pipeline> frames (empty disables; bind privately)")
	flag.Parse()

	origin := *nodeID
	if origin == "" {
		if host, err := os.Hostname(); err == nil {
			origin = host
		}
	}

	key, err := resolveKey(*keyHex)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}
	model, store, err := loadComponents(*feedPath, *modelPath)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}
	// The defense event log backs GET /events: every adapt transition,
	// spec apply/rollback, cluster membership change, and evidence stall
	// lands here regardless of whether an admin listener is serving it.
	events := aipow.NewEventLog(0)
	registry, err := buildRegistry(key, model, store, origin, events)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}

	dep, err := resolveDeployment(*specPath, *policySpec, *bypass)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}
	gk, err := aipow.NewGatekeeper(registry, dep)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}

	app := http.NewServeMux()
	app.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "protected resource %q served at %s\n", r.URL.Path, time.Now().Format(time.RFC3339))
	})
	var mwOpts []aipow.HTTPMiddlewareOption
	if *trustHeader != "" {
		mwOpts = append(mwOpts, aipow.WithTrustedIPHeader(*trustHeader))
	}
	if *tenantHeader != "" {
		mwOpts = append(mwOpts, aipow.WithTenantHeader(*tenantHeader))
	}
	protected, err := aipow.NewRoutedHTTPMiddleware(gk, app, mwOpts...)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}

	root := http.NewServeMux()
	root.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	root.Handle("/", protected)

	if *specPath != "" {
		reloadOnSIGHUP(gk, *specPath)
	}
	var admin *http.ServeMux
	if *adminAddr != "" {
		proxyAuth, err := aipow.NewProxyAuth(aipow.DeriveProxyAuthKey(key))
		if err != nil {
			log.Fatalf("powserver: %v", err)
		}
		if admin, err = newAdminMux(*adminToken, proxyAuth, gk, origin, events, *pprofFlag); err != nil {
			log.Fatalf("powserver: %v", err)
		}
	}

	// Bind every listener before serving any, so the ready line names
	// ports this process holds.
	publicLn := listen(cmp.Or(*addr, ":http"))
	adminLn, clusterLn := listen(*adminAddr), listen(*clusterListen)
	if adminLn != nil {
		log.Printf("powserver: control plane on %s (POST /apply, POST /rollback, POST /batch, GET /spec, GET /spec/history, GET /stats, GET /metrics, GET /trace, GET /events)", adminLn.Addr())
		go serve(adminLn, admin)
	}
	if clusterLn != nil {
		log.Printf("powserver: cluster exchange on %s (GET /cluster/<pipeline>)", clusterLn.Addr())
		go serve(clusterLn, clusterMux(gk))
	}
	if *adapt {
		go runAdaptLoop(gk)
	}

	// On SIGINT/SIGTERM, stop the pipelines' evidence flush loops and
	// drain their buffers before exiting; serving state needs no other
	// teardown.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-stop
		_ = gk.Close()
		os.Exit(0)
	}()

	log.Printf("powserver: pipelines %v, %d feed IPs, listening on %s", gk.Names(), store.Len(), publicLn.Addr())
	fmt.Printf("ready public=%s admin=%s cluster=%s\n", boundAddr(publicLn), boundAddr(adminLn), boundAddr(clusterLn))
	serve(publicLn, root)
}

// listen binds a TCP listener on addr, nil for an empty addr (the
// listener is off).
func listen(addr string) net.Listener {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("powserver: %v", err)
	}
	return ln
}

// boundAddr is the ready line's address for ln: its bound address, "-"
// when the listener is off.
func boundAddr(ln net.Listener) string {
	if ln == nil {
		return "-"
	}
	return ln.Addr().String()
}

// serve answers HTTP on ln until the process exits.
func serve(ln net.Listener, h http.Handler) {
	server := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	log.Fatal(server.Serve(ln))
}

// buildRegistry assembles the component registry the spec's names resolve
// against: the trained model and the feed store become spec-addressable
// components sharing one key and one default-sized tracker across all
// pipelines.
func buildRegistry(key []byte, model *reputation.Model, store *aipow.MapStore, nodeID string, events *aipow.EventLog) (*aipow.ComponentRegistry, error) {
	opts := []aipow.ComponentRegistryOption{aipow.WithRegistryNodeID(nodeID)}
	if events != nil {
		opts = append(opts, aipow.WithRegistryEvents(events.Append))
	}
	registry, err := aipow.NewComponentRegistry(key, opts...)
	if err != nil {
		return nil, err
	}
	if err := registry.RegisterPaperComponents(model, store); err != nil {
		return nil, err
	}
	return registry, nil
}

// resolveDeployment loads the spec file, or synthesizes the classic
// single-pipeline deployment from the -policy/-bypass flags.
func resolveDeployment(specPath, policySpec string, bypass float64) (*aipow.DeploymentSpec, error) {
	if specPath != "" {
		return loadDeployment(specPath)
	}
	ps := aipow.PipelineSpec{Name: "default", Scorer: "dabr", Policy: policySpec, Source: "combined"}
	if bypass >= 0 {
		ps.BypassBelow = &bypass
	}
	return &aipow.DeploymentSpec{Pipelines: []aipow.PipelineSpec{ps}}, nil
}

// loadDeployment reads and parses a spec file.
func loadDeployment(path string) (*aipow.DeploymentSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	dep, err := aipow.ParseDeployment(string(buf))
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", path, err)
	}
	return dep, nil
}

// reloadOnSIGHUP re-reads the spec file and applies it on every SIGHUP —
// the restart-free operator workflow: edit the file, kill -HUP.
func reloadOnSIGHUP(gk *aipow.Gatekeeper, specPath string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	go func() {
		for range ch {
			dep, err := loadDeployment(specPath)
			if err != nil {
				log.Printf("powserver: SIGHUP reload rejected: %v", err)
				continue
			}
			if err := gk.Apply(dep); err != nil {
				log.Printf("powserver: SIGHUP apply rejected: %v", err)
				continue
			}
			log.Printf("powserver: SIGHUP applied %s (pipelines %v)", specPath, gk.Names())
		}
	}()
}

// runAdaptLoop drives the feedback controllers of every pipeline whose
// spec declares an adapt section: a coarse ticker calls the gatekeeper's
// StepControllers, and each controller internally skips until its own
// interval has elapsed. The closed loop uses the exact policy hot-swap
// path /apply does, so everything an escalation installs is visible on
// GET /stats (the adapt.* keys) and revertible via POST /rollback.
func runAdaptLoop(gk *aipow.Gatekeeper) {
	log.Print("powserver: adaptive feedback loop running")
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	var lastErr string
	for now := range ticker.C {
		if err := gk.StepControllers(now); err != nil {
			// Log state changes, not every tick, so a persistent swap
			// failure cannot flood the log.
			if msg := err.Error(); msg != lastErr {
				log.Printf("powserver: adapt: %v", err)
				lastErr = msg
			}
			continue
		}
		lastErr = ""
	}
}

// requireBearer wraps a mutating admin handler with a constant-time
// bearer-token check. An empty configured token leaves the handler open
// (the pre-hardening behavior — bind the listener privately).
func requireBearer(token string, next http.HandlerFunc) http.HandlerFunc {
	if token == "" {
		return next
	}
	// Compare digests, not raw strings: ConstantTimeCompare leaks length
	// mismatches, a hash makes both sides fixed-width.
	want := sha256.Sum256([]byte(token))
	return func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		const prefix = "Bearer "
		if !strings.HasPrefix(auth, prefix) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="powserver-admin"`)
			http.Error(w, "missing bearer token", http.StatusUnauthorized)
			return
		}
		got := sha256.Sum256([]byte(strings.TrimPrefix(auth, prefix)))
		if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="powserver-admin"`)
			http.Error(w, "invalid bearer token", http.StatusUnauthorized)
			return
		}
		next(w, r)
	}
}

// requireBearerOrProxy admits a request through either credential: the
// admin bearer token, or the signed proxy headers proving the caller
// holds the key derived from the deployment's root key — so the proxy
// tier can drive POST /batch without ever seeing the admin token, and a
// leaked admin token no longer implies a leaked serving path. A request
// that presents a proxy signature is judged on it alone (a bad
// signature never falls back to the bearer check).
func requireBearerOrProxy(token string, auth *aipow.ProxyAuth, next http.HandlerFunc) http.HandlerFunc {
	bearer := requireBearer(token, next)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(aipow.HeaderProxySignature) == "" {
			bearer(w, r)
			return
		}
		if _, err := auth.Authenticate(r); err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		next(w, r)
	}
}

// clusterMux is the peer-exchange handler: GET /cluster/<pipeline>
// serves the named pipeline's current state frame (Bloom filter over
// redeemed tags, reputation digest, serving counters) for fleet peers
// to absorb. Frames are HMAC-signed with the pipeline's key, so the
// listener leaks nothing actionable to an unkeyed reader — but bind it
// privately anyway. Pipelines are resolved per request, so hot-swapped
// deployments serve their current generation's node.
func clusterMux(gk *aipow.Gatekeeper) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/{pipeline}", func(w http.ResponseWriter, r *http.Request) {
		p, ok := gk.Pipeline(r.PathValue("pipeline"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		node := p.ClusterNode()
		if node == nil {
			http.Error(w, "pipeline is not clustered", http.StatusNotFound)
			return
		}
		node.Handler().ServeHTTP(w, r)
	})
	return mux
}

// newAdminMux assembles the control-plane handler: POST /apply (spec
// body), POST /rollback, POST /batch, GET /spec, GET /spec/history, GET
// /stats, GET /metrics (Prometheus text exposition), and the token-authed
// observability reads GET /trace (sampled decision traces) and GET
// /events (the defense event log). Mutating endpoints and the
// trace/events reads honor the bearer token (the batch front door also
// accepts signed proxy headers); plain scrape endpoints stay open — bind
// the listener to a private interface regardless. node labels every
// exposition series; withPprof mounts net/http/pprof under /debug/pprof/.
func newAdminMux(token string, proxyAuth *aipow.ProxyAuth, gk *aipow.Gatekeeper, node string, events *aipow.EventLog, withPprof bool) (*http.ServeMux, error) {
	// One stats map reused across polls (StatsInto): the scrape path does
	// not allocate a map per request.
	var statsMu sync.Mutex
	stats := make(map[string]float64, 16)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /apply", requireBearer(token, func(w http.ResponseWriter, r *http.Request) {
		// MaxBytesReader (not LimitReader) so an oversized spec is
		// rejected loudly instead of silently truncated — a cut-off
		// deployment could still validate and route tenants wrongly.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		dep, err := aipow.ParseDeployment(string(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := gk.Apply(dep); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		log.Printf("powserver: admin applied new deployment (pipelines %v)", gk.Names())
		fmt.Fprintf(w, "applied; pipelines %v\n", gk.Names())
	}))
	mux.HandleFunc("POST /rollback", requireBearer(token, func(w http.ResponseWriter, r *http.Request) {
		if _, err := gk.Rollback(); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		log.Printf("powserver: admin rolled back deployment (pipelines %v)", gk.Names())
		fmt.Fprintf(w, "rolled back; pipelines %v\n", gk.Names())
	}))
	// The batch front door trusts caller-supplied client IPs, so it lives
	// on the (privately bound) admin listener behind a credential: the
	// bearer token, or per-request signed proxy headers — only a trusted
	// proxy tier may decide on behalf of clients.
	batch, err := aipow.NewRoutedHTTPBatchHandler(gk)
	if err != nil {
		return nil, fmt.Errorf("batch handler: %w", err)
	}
	mux.HandleFunc("POST /batch", requireBearerOrProxy(token, proxyAuth, batch.ServeHTTP))
	mux.HandleFunc("GET /spec/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(gk.History())
	})
	mux.HandleFunc("GET /spec", func(w http.ResponseWriter, r *http.Request) {
		buf, err := gk.Spec().Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		statsMu.Lock()
		defer statsMu.Unlock()
		clear(stats)
		gk.StatsInto(stats)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(stats)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		e := aipow.NewExposition()
		gk.ExpositionInto(e, node)
		w.Header().Set("Content-Type", metricsContentType)
		_, _ = e.WriteTo(w)
	})
	// Trace and event reads expose per-client scores and defense posture,
	// so unlike the aggregate scrape endpoints they sit behind the token.
	mux.HandleFunc("GET /trace", requireBearer(token, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(gk.TraceSnapshots())
	}))
	mux.HandleFunc("GET /events", requireBearer(token, func(w http.ResponseWriter, r *http.Request) {
		snap := []aipow.DefenseEvent{}
		if events != nil {
			snap = events.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
	}))
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux, nil
}

// metricsContentType is the Prometheus text exposition format version the
// /metrics endpoint emits.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// resolveKey decodes the hex key or generates a demo key.
func resolveKey(keyHex string) ([]byte, error) {
	if keyHex == "" {
		log.Print("powserver: no -key given; using an ephemeral demo key")
		return []byte("ephemeral-demo-key-do-not-deploy"), nil
	}
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		return nil, fmt.Errorf("decode -key: %w", err)
	}
	return key, nil
}

// loadComponents builds the data behind the paper's components: the feed
// (the CSV, or the calibrated demo feed), the store indexing it by IP with
// the median benign fallback, and the model (loaded from modelPath, or
// trained on the feed with seed 1).
func loadComponents(feedPath, modelPath string) (*reputation.Model, *aipow.MapStore, error) {
	feed, err := resolveFeed(feedPath)
	if err != nil {
		return nil, nil, err
	}
	store, err := control.NewFeedStore(feed)
	if err != nil {
		return nil, nil, err
	}
	if modelPath == "" {
		log.Print("powserver: no -model given; training on the feed")
		model, err := control.TrainFeedModel(feed, 1)
		return model, store, err
	}
	model, err := reputation.LoadFile(modelPath)
	return model, store, err
}

// resolveFeed loads the CSV feed or synthesizes the calibrated demo feed.
func resolveFeed(path string) ([]dataset.Sample, error) {
	if path == "" {
		log.Print("powserver: no -feed given; synthesizing the calibrated demo feed")
		return dataset.Generate(dataset.DefaultConfig())
	}
	return dataset.ReadCSVFile(path)
}
