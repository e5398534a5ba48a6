package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"aipow"
)

// The end-to-end tests build powserver and powclient, run them as child
// processes on loopback ports, and drive them the way an operator does:
// over HTTP, with a spec file and with signals. The deployments they boot
// are testdata/e2e.spec and testdata/obs.spec.

const e2eToken = "e2e-secret"

// bins holds the binaries built once per test run; TestMain removes dir.
var bins struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		_ = os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// binary returns the path of the named command (powserver or powclient),
// building both on first use.
func binary(t *testing.T, name string) string {
	t.Helper()
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "powserver-e2e-"); bins.err != nil {
			return
		}
		for bin, pkg := range map[string]string{"powserver": ".", "powclient": "../powclient"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(bins.dir, bin), pkg).CombinedOutput()
			if err != nil {
				bins.err = fmt.Errorf("build %s: %v\n%s", bin, err, out)
				return
			}
		}
	})
	if bins.err != nil {
		t.Fatal(bins.err)
	}
	return filepath.Join(bins.dir, name)
}

// node is one powserver child process.
type node struct {
	cmd    *exec.Cmd
	url    string            // public listener
	admin  string            // admin listener
	bound  map[string]string // the ready line's listener addresses
	stderr bytes.Buffer
	done   chan struct{} // closed once the child has been reaped
}

// startNode spawns powserver with its public and admin listeners on port
// 0 plus args, and waits for the ready line that names the ports it
// bound. The child is stopped when the test ends; its stderr is logged if
// the test failed.
func startNode(t *testing.T, args ...string) *node {
	t.Helper()
	n := &node{done: make(chan struct{})}
	n.cmd = exec.Command(binary(t, "powserver"), append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)
	n.cmd.Stderr = &n.stderr
	stdout, w := io.Pipe()
	n.cmd.Stdout = w
	// If the test binary dies without running cleanups, the kernel still
	// takes the child down.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = n.cmd.Wait()
		w.Close()
		close(n.done)
	}()
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			ready <- sc.Text()
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	t.Cleanup(func() {
		_ = n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-n.done:
		case <-time.After(2 * time.Second):
			_ = n.cmd.Process.Kill()
			<-n.done
		}
		if t.Failed() {
			t.Logf("powserver stderr:\n%s", n.stderr.String())
		}
	})
	var line string
	select {
	case line = <-ready:
	case <-n.done:
		t.Fatalf("powserver exited during start-up:\n%s", n.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("timed out after 30s waiting for powserver's ready line")
	}
	n.bound = make(map[string]string)
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "ready" {
		t.Fatalf("ready line %q, want ready public=… admin=… cluster=…", line)
	}
	for _, f := range fields[1:] {
		name, addr, _ := strings.Cut(f, "=")
		n.bound[name] = addr
	}
	n.url, n.admin = "http://"+n.bound["public"], "http://"+n.bound["admin"]
	return n
}

// TestReadyLineNamesHeldPorts boots powserver with all three listeners on
// port 0: the ready line names each bound address, the child holds every
// one of them (binding it again fails), and the public one serves.
func TestReadyLineNamesHeldPorts(t *testing.T) {
	skipUnderRace(t)
	t.Parallel()
	n := startNode(t, "-cluster-listen", "127.0.0.1:0")
	for _, name := range []string{"public", "admin", "cluster"} {
		addr := n.bound[name]
		if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
			t.Fatalf("ready line names %s=%q, want a bound host:port", name, addr)
		}
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			ln.Close()
			t.Fatalf("bound %s address %s again: the child does not hold it", name, addr)
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			t.Fatalf("binding %s address %s again: %v, want address already in use", name, addr, err)
		}
	}
	resp, err := http.Get(n.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
}

// waitFor polls cond every interval until it holds, failing the test after
// timeout.
func waitFor(t *testing.T, what string, timeout, interval time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(interval) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
	}
}

// unsolved requests path on the public listener without a solution and
// returns the 428 response's headers.
func (n *node) unsolved(t *testing.T, path string) http.Header {
	t.Helper()
	resp, err := http.Get(n.url + path)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != aipow.StatusChallenge {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, aipow.StatusChallenge)
	}
	return resp.Header
}

// difficulty requests path unsolved and returns the challenge difficulty
// the response advertises.
func (n *node) difficulty(t *testing.T, path string) int {
	t.Helper()
	d, err := strconv.Atoi(n.unsolved(t, path).Get("X-PoW-Difficulty"))
	if err != nil {
		t.Fatalf("GET %s difficulty header: %v", path, err)
	}
	return d
}

// challenge requests path unsolved and decodes the challenge it is issued.
func (n *node) challenge(t *testing.T, path string) aipow.Challenge {
	t.Helper()
	var ch aipow.Challenge
	if err := ch.UnmarshalText([]byte(n.unsolved(t, path).Get(aipow.HeaderChallenge))); err != nil {
		t.Fatalf("GET %s challenge header: %v", path, err)
	}
	return ch
}

func (n *node) wantDifficulty(t *testing.T, path string, want int) {
	t.Helper()
	if got := n.difficulty(t, path); got != want {
		t.Fatalf("GET %s difficulty = %d, want %d", path, got, want)
	}
}

// call sends one admin-listener request, with a bearer token unless token
// is empty, and returns the status, Content-Type and body.
func (n *node) call(t *testing.T, method, path, token, body string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, n.admin+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(buf)
}

// mustCall is call for requests that must succeed; it returns the body.
func (n *node) mustCall(t *testing.T, method, path, token, body string) string {
	t.Helper()
	code, _, out := n.call(t, method, path, token, body)
	if code != http.StatusOK {
		t.Fatalf("%s %s = %d, want 200: %s", method, path, code, out)
	}
	return out
}

func (n *node) wantUnauthorized(t *testing.T, method, path, token, body string) {
	t.Helper()
	if code, _, out := n.call(t, method, path, token, body); code != http.StatusUnauthorized {
		t.Fatalf("%s %s with token %q = %d, want 401: %s", method, path, token, code, out)
	}
}

// stat reads one key of GET /stats.
func (n *node) stat(t *testing.T, key string) float64 {
	t.Helper()
	var stats map[string]float64
	if err := json.Unmarshal([]byte(n.mustCall(t, "GET", "/stats", "", "")), &stats); err != nil {
		t.Fatal(err)
	}
	v, ok := stats[key]
	if !ok {
		t.Fatalf("/stats has no %q", key)
	}
	return v
}

// solve runs powclient for count requests against path; every one must
// be served after a real solve.
func (n *node) solve(t *testing.T, path string, count int) {
	t.Helper()
	out, err := exec.Command(binary(t, "powclient"), "-url", n.url+path, "-n", strconv.Itoa(count)).CombinedOutput()
	if err != nil {
		t.Fatalf("powclient: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("requests: %d ok, 0 failed", count); !strings.Contains(string(out), want) {
		t.Fatalf("powclient output lacks %q:\n%s", want, out)
	}
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("the powserver and powclient children are not race-built")
	}
}

// TestControlPlaneEndToEnd boots powserver from a spec file with an adapt
// section, then reconfigures it through every operator channel — POST
// /apply, POST /rollback, a SIGHUP file reload — and finally drives the
// closed loop: a flood escalates the web pipeline, quiet de-escalates it.
func TestControlPlaneEndToEnd(t *testing.T) {
	skipUnderRace(t)
	t.Parallel()
	base, err := os.ReadFile("testdata/e2e.spec")
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(t.TempDir(), "deploy.spec")
	if err := os.WriteFile(specPath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	n := startNode(t, "-spec", specPath, "-adapt", "-admin-token", e2eToken)

	// Per-route pipelines from the spec file, and real solves: hashcash on
	// /, and balloon on /signup, where the powclient binary's solver and
	// powserver's verifier must agree on the SHA-256 shell.
	n.wantDifficulty(t, "/", 3)
	n.wantDifficulty(t, "/api/x", 5)
	n.wantDifficulty(t, "/signup", 4)
	if ch := n.challenge(t, "/signup"); ch.Backend != aipow.BackendBalloon || ch.Space != 8 || ch.Rounds != 1 {
		t.Fatalf("GET /signup issues %s(space=%d, time=%d), want balloon(space=8, time=1)",
			ch.Backend, ch.Space, ch.Rounds)
	}
	n.solve(t, "/", 5)
	n.solve(t, "/signup", 20)

	// The batch front door: unauthenticated calls bounce; two items routed
	// to different pipelines come back in order at each route's price.
	batch := `{"requests":[{"ip":"198.51.100.7","path":"/"},{"ip":"198.51.100.8","path":"/api/x"}]}`
	n.wantUnauthorized(t, "POST", "/batch", "", batch)
	var results struct{ Results []aipow.HTTPBatchResult }
	if err := json.Unmarshal([]byte(n.mustCall(t, "POST", "/batch", e2eToken, batch)), &results); err != nil {
		t.Fatal(err)
	}
	if r := results.Results; len(r) != 2 || r[0].Difficulty != 3 || r[1].Difficulty != 5 {
		t.Fatalf("batch results = %+v, want difficulties [3 5]", r)
	}

	// Authenticated apply reconfigures live; missing and wrong tokens
	// bounce.
	n.wantUnauthorized(t, "POST", "/apply", "", string(base))
	n.wantUnauthorized(t, "POST", "/apply", "wrong", string(base))
	n.mustCall(t, "POST", "/apply", e2eToken, strings.Replace(string(base), "difficulty=3", "difficulty=12", 1))
	n.wantDifficulty(t, "/", 12)
	n.wantDifficulty(t, "/api/x", 5)

	// History records both generations; rollback reverts.
	var history []aipow.SpecHistoryEntry
	if err := json.Unmarshal([]byte(n.mustCall(t, "GET", "/spec/history", "", "")), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("spec history has %d generations, want 2", len(history))
	}
	n.wantUnauthorized(t, "POST", "/rollback", "", "")
	n.mustCall(t, "POST", "/rollback", e2eToken, "")
	n.wantDifficulty(t, "/", 3)

	// Edit the spec file and SIGHUP: the reloaded route still serves solves.
	if err := os.WriteFile(specPath, []byte(strings.Replace(string(base), "difficulty=5", "difficulty=8", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := n.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the SIGHUP reload", 10*time.Second, 100*time.Millisecond, func() bool { return n.difficulty(t, "/api/x") == 8 })
	n.solve(t, "/api/resource", 3)
	if lvl := n.stat(t, "web.adapt.level"); lvl != 0 {
		t.Fatalf("web.adapt.level = %v before the flood, want 0", lvl)
	}
	if spec := n.mustCall(t, "GET", "/spec", "", ""); !strings.Contains(spec, `"adapt"`) {
		t.Fatalf("GET /spec lacks the adapt section:\n%s", spec)
	}

	// Closed loop, escalation: a flood over the rate threshold swaps web
	// onto the harder policy. A controller's first step only records a
	// baseline, and the steps above can all finish before it, so the flood
	// lasts until the controller reacts. Polling /stats adds no decisions.
	waitFor(t, "escalation", 10*time.Second, 100*time.Millisecond, func() bool {
		var burst sync.WaitGroup
		for range 20 {
			burst.Add(1)
			go func() {
				defer burst.Done()
				if resp, err := http.Get(n.url + "/"); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		burst.Wait()
		return n.stat(t, "web.adapt.level") == 1
	})
	n.wantDifficulty(t, "/", 14)

	// Closed loop, de-escalation: quiet past the hold reverts to the
	// declared base policy.
	waitFor(t, "de-escalation", 20*time.Second, 100*time.Millisecond, func() bool { return n.stat(t, "web.adapt.level") == 0 })
	n.wantDifficulty(t, "/", 3)
	if swaps := n.stat(t, "web.adapt.swaps"); swaps != 2 {
		t.Fatalf("web.adapt.swaps = %v, want 2", swaps)
	}
}

// sumSamples sums the values of every exposition sample whose series
// starts with prefix (a metric name plus "{").
func sumSamples(t *testing.T, scrape, prefix string) float64 {
	t.Helper()
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(series, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", sc.Text(), err)
		}
		sum += v
	}
	return sum
}

// TestObservabilityEndToEnd boots a traced powserver with -pprof, serves
// real solves, and reads the whole admin observability surface: two
// valid /metrics scrapes with counters that only move up, the
// token-protected /trace and /events, and the pprof mount.
func TestObservabilityEndToEnd(t *testing.T) {
	skipUnderRace(t)
	t.Parallel()
	n := startNode(t, "-spec", "testdata/obs.spec", "-admin-token", e2eToken, "-pprof")

	scrape := func() string {
		t.Helper()
		code, ctype, body := n.call(t, "GET", "/metrics", "", "")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", code)
		}
		if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
			t.Fatalf("GET /metrics Content-Type = %q, want the 0.0.4 exposition version", ctype)
		}
		if err := aipow.ValidateExposition([]byte(body)); err != nil {
			t.Fatalf("invalid exposition: %v\n%s", err, body)
		}
		return body
	}

	n.solve(t, "/", 5)
	first := scrape()
	for _, series := range []string{`aipow_issued{pipeline="web"`, "aipow_serving_latency_ms_bucket", "aipow_trace_sampled"} {
		if !strings.Contains(first, series) {
			t.Fatalf("scrape lacks %s:\n%s", series, first)
		}
	}
	n.solve(t, "/", 5)
	second := scrape()
	issued1, issued2 := sumSamples(t, first, "aipow_issued{"), sumSamples(t, second, "aipow_issued{")
	if issued1 < 5 || issued2 <= issued1 {
		t.Fatalf("aipow_issued %v then %v, want ≥ 5 and strictly increasing", issued1, issued2)
	}
	if lat1, lat2 := sumSamples(t, first, "aipow_serving_latency_ms_count{"), sumSamples(t, second, "aipow_serving_latency_ms_count{"); lat2 <= lat1 {
		t.Fatalf("aipow_serving_latency_ms_count %v then %v, want strictly increasing", lat1, lat2)
	}

	// Trace and event rings are bearer-protected JSON.
	n.wantUnauthorized(t, "GET", "/trace", "", "")
	n.wantUnauthorized(t, "GET", "/events", "", "")
	if trace := n.mustCall(t, "GET", "/trace", e2eToken, ""); !strings.Contains(trace, `"kind":"decide"`) {
		t.Fatalf("GET /trace lacks a decide sample:\n%s", trace)
	}
	if events := n.mustCall(t, "GET", "/events", e2eToken, ""); !strings.Contains(events, `"kind":"spec.apply"`) {
		t.Fatalf("GET /events lacks spec.apply:\n%s", events)
	}

	// -pprof mounts the runtime profiles on the admin listener.
	if dump := n.mustCall(t, "GET", "/debug/pprof/goroutine?debug=1", "", ""); !strings.Contains(dump, "goroutine") {
		t.Fatalf("pprof goroutine dump:\n%s", dump)
	}
}
