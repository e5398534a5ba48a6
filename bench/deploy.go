package main

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"aipow"
	"aipow/bench/workload"
	"aipow/internal/dataset"
	"aipow/internal/policy"
	"aipow/internal/reputation"
)

// trustHeader is the header both the child's -trust-ip-header flag and the
// embedded middleware take client addresses from: the generator speaks for
// 200 000 clients from one loopback socket.
const trustHeader = "X-Real-IP"

// adminToken protects the child's admin listener; it is not a secret.
const adminToken = "bench-admin-token"

// deployment is the seeded deployment under test: inputs, trained model,
// and — for HTTP workloads — the files and binary a powserver child boots
// from.
type deployment struct {
	in    *workload.Inputs
	model *reputation.Model

	root string // repository root
	dir  string // this run's scratch directory under .bench_build/
	bin  string // powserver binary
}

// repoRoot walks up from the working directory to the module root, so the
// benchmark runs the same from the root (`go run ./bench`) and from its
// own directory (`go test`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if buf, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(buf, []byte("module aipow\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the aipow module")
		}
		dir = parent
	}
}

// newDeployment generates the inputs for seed and trains the model.
func newDeployment(seed uint64) (*deployment, error) {
	in, err := workload.Generate(seed)
	if err != nil {
		return nil, err
	}
	samples := make([]reputation.Sample, len(in.Feed))
	for i, s := range in.Feed {
		samples[i] = reputation.Sample{Attrs: s.Attrs, Malicious: s.Malicious}
	}
	model, err := reputation.Train(samples, reputation.WithSeed(seed))
	if err != nil {
		return nil, fmt.Errorf("bench: train model: %w", err)
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return &deployment{in: in, model: model, root: root}, nil
}

// buildServer compiles cmd/powserver from the checkout's source and writes
// the feed, model and spec the child boots from. Build time is not part of
// any metric.
func (d *deployment) buildServer() error {
	build := filepath.Join(d.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	d.bin = filepath.Join(build, "powserver")
	cmd := exec.Command("go", "build", "-o", d.bin, "./cmd/powserver")
	cmd.Dir = d.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: build powserver: %w\n%s", err, out)
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	d.dir = dir

	var feed, model bytes.Buffer
	if err := dataset.WriteCSV(&feed, d.in.Feed); err != nil {
		return err
	}
	if err := d.model.Save(&model); err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		"feed.csv":    feed.Bytes(),
		"model.json":  model.Bytes(),
		"deploy.spec": []byte(workload.DeploymentSpec),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cleanup removes the run's scratch directory (the binary stays, as the
// build cache it is).
func (d *deployment) cleanup() {
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}

// server is one powserver child.
type server struct {
	cmd    *exec.Cmd
	addr   string
	admin  string
	stderr *lockedBuffer
	done   chan struct{} // closed once the child has been reaped
}

// lockedBuffer collects the child's stderr; exec's copier goroutine writes
// while a failing run reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// children tracks live children so a signal or a fatal error can reap
// them; see stopAllServers.
var children struct {
	sync.Mutex
	live map[*server]bool
}

// startServer spawns a fresh child and waits for its first correct
// response — a 428 carrying a challenge on GET / — returning the time from
// spawn to that response. Ports are picked at run time; losing the race
// for one is retried with new ports.
func (d *deployment) startServer() (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, took, err := d.spawn()
		if err == nil {
			return s, took, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func (d *deployment) spawn() (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{addr: addr, admin: admin, stderr: &lockedBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(d.bin,
		"-addr", addr, "-admin", admin, "-admin-token", adminToken,
		"-feed", filepath.Join(d.dir, "feed.csv"),
		"-model", filepath.Join(d.dir, "model.json"),
		"-key", hex.EncodeToString(d.in.Key),
		"-spec", filepath.Join(d.dir, "deploy.spec"),
		"-trust-ip-header", trustHeader)
	s.cmd.Stderr = s.stderr
	// If the benchmark dies without running its defers (SIGKILL, a panic
	// on another goroutine) the kernel still takes the child down.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("bench: start powserver: %w", err)
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*server]bool)
	}
	children.live[s] = true
	children.Unlock()
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()

	deadline := start.Add(20 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, 0, s.failure("powserver exited during start-up")
		default:
		}
		if c, err := dial(addr); err == nil {
			resp, err := c.get(workload.PathWeb, d.in.IPs[d.in.Hot[0]], "")
			c.close()
			if err == nil && resp.status == aipow.StatusChallenge && len(resp.challenge) > 0 {
				return s, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, s.failure("powserver gave no correct response within 20s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// failure wraps msg with the child's stderr, so a failed run explains
// itself.
func (s *server) failure(msg string) error {
	return fmt.Errorf("bench: %s\n--- powserver stderr ---\n%s", msg, strings.TrimSpace(s.stderr.String()))
}

// stop terminates the child and waits until it has been reaped: SIGTERM
// first (powserver drains evidence buffers on it), SIGKILL after 2 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// stopAllServers reaps every live child; the signal handler and fatal
// exits call it so no run leaves a process behind.
func stopAllServers() {
	children.Lock()
	live := make([]*server, 0, len(children.live))
	for s := range children.live {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// inproc is the same deployment built inside the benchmark process, wired
// exactly as cmd/powserver wires it: one shared tracker, the trained model
// as scorer "dabr", the feed store as source "feed" and, merged with the
// tracker, "combined".
type inproc struct {
	gk      *aipow.Gatekeeper
	tracker *aipow.Tracker
	store   *aipow.MapStore
	handler http.Handler // routed middleware over okHandler
}

// okHandler is the protected application: it costs nothing, so what the
// embedded workload measures is the middleware.
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
})

func (d *deployment) newStore() (*aipow.MapStore, error) {
	var fallback map[string]float64
	for _, s := range d.in.Feed {
		if !s.Malicious {
			fallback = s.Attrs
			break
		}
	}
	store, err := aipow.NewMapStore(fallback)
	if err != nil {
		return nil, err
	}
	for _, s := range d.in.Feed {
		store.Put(s.IP, s.Attrs)
	}
	return store, nil
}

func (d *deployment) newInproc() (*inproc, error) {
	store, err := d.newStore()
	if err != nil {
		return nil, err
	}
	tracker, err := aipow.NewTracker()
	if err != nil {
		return nil, err
	}
	reg, err := aipow.NewComponentRegistry(d.in.Key, aipow.WithSharedTracker(tracker))
	if err != nil {
		return nil, err
	}
	if err := reg.RegisterScorer("dabr", func(params map[string]float64) (aipow.Scorer, error) {
		return d.model, policy.RejectUnknownParams(params)
	}); err != nil {
		return nil, err
	}
	if err := reg.RegisterSource("feed", func(params map[string]float64, _ *aipow.Tracker) (aipow.AttributeSource, error) {
		return store, policy.RejectUnknownParams(params)
	}); err != nil {
		return nil, err
	}
	if err := reg.RegisterSource("combined", func(params map[string]float64, t *aipow.Tracker) (aipow.AttributeSource, error) {
		if err := policy.RejectUnknownParams(params); err != nil {
			return nil, err
		}
		return aipow.NewCombinedSource(store, t)
	}); err != nil {
		return nil, err
	}
	dep, err := aipow.ParseDeployment(workload.DeploymentSpec)
	if err != nil {
		return nil, err
	}
	gk, err := aipow.NewGatekeeper(reg, dep)
	if err != nil {
		return nil, err
	}
	handler, err := aipow.NewRoutedHTTPMiddleware(gk, okHandler, aipow.WithTrustedIPHeader(trustHeader))
	if err != nil {
		_ = gk.Close()
		return nil, err
	}
	return &inproc{gk: gk, tracker: tracker, store: store, handler: handler}, nil
}
