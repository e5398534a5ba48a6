// Command ddos-mitigation demonstrates the paper's throttling claim with
// real HTTP and real hashing: a protected server faces a fleet of
// closed-loop bot goroutines (flagged malicious in the intelligence feed)
// beside a handful of benign clients, first under the adaptive framework
// and then under a fixed-difficulty baseline. The adaptive run serves
// benign traffic at interactive latency while bots burn CPU; the fixed
// baseline cannot tell them apart.
//
// Run with:
//
//	go run ./examples/ddos-mitigation
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aipow"
)

const (
	demoDuration = 3 * time.Second
	benignCount  = 4
	botCount     = 16
	// Real Go solvers hash in the MH/s range, so we push bot difficulty
	// high enough (score+9 policy) that solving visibly throttles them.
	adaptivePolicySpec = "linear(base=9,slope=1)"
	fixedPolicySpec    = "fixed(difficulty=12)"
)

func main() {
	log.SetFlags(0)

	feed, err := aipow.GenerateDataset(aipow.DefaultDatasetConfig())
	if err != nil {
		log.Fatalf("generate feed: %v", err)
	}
	model, err := aipow.TrainReputationModel(aipow.DatasetToSamples(feed))
	if err != nil {
		log.Fatalf("train model: %v", err)
	}

	// Assign feed identities: benign clients get benign sample attributes,
	// bots get malicious ones. The middleware trusts X-Demo-IP so the
	// in-process clients can present those identities.
	var benign, malicious []aipow.DatasetSample
	for _, s := range feed {
		if s.Malicious {
			malicious = append(malicious, s)
		} else {
			benign = append(benign, s)
		}
	}
	store, err := aipow.NewMapStore(benign[0].Attrs)
	if err != nil {
		log.Fatalf("build store: %v", err)
	}
	benignIPs := make([]string, benignCount)
	botIPs := make([]string, botCount)
	for i := range benignIPs {
		s := benign[i%len(benign)]
		benignIPs[i] = fmt.Sprintf("ben-%d-%s", i, s.IP)
		store.Put(benignIPs[i], s.Attrs)
	}
	for i := range botIPs {
		s := malicious[i%len(malicious)]
		botIPs[i] = fmt.Sprintf("bot-%d-%s", i, s.IP)
		store.Put(botIPs[i], s.Attrs)
	}

	// Show what each class will be asked to solve.
	benScore, err := aipow.ScoreAttributes(model, store.Attributes(benignIPs[0], time.Now()))
	if err != nil {
		log.Fatalf("score: %v", err)
	}
	botScore, err := aipow.ScoreAttributes(model, store.Attributes(botIPs[0], time.Now()))
	if err != nil {
		log.Fatalf("score: %v", err)
	}
	fmt.Printf("example scores: benign %.1f, bot %.1f (scale 0-10)\n\n", benScore, botScore)

	reg := aipow.NewPolicyRegistry()
	for _, spec := range []string{adaptivePolicySpec, fixedPolicySpec} {
		pol, err := reg.New(spec)
		if err != nil {
			log.Fatalf("policy %q: %v", spec, err)
		}
		fmt.Printf("=== defense: %s ===\n", pol.Name())
		runScenario(model, store, pol, benignIPs, botIPs)
		fmt.Println()
	}
	fmt.Println("note: every client hashes inside this one process, so heavy bot solving")
	fmt.Println("also queues benign work on the shared CPUs; in a real attack each bot")
	fmt.Println("burns its own CPU. The per-client bot request rate is the honest signal:")
	fmt.Println("the adaptive defense cuts it by an order of magnitude.")
}

// runScenario stands up a protected server and hammers it for the demo
// duration, printing per-class outcomes.
func runScenario(model *aipow.ReputationModel, store *aipow.MapStore, pol aipow.Policy,
	benignIPs, botIPs []string) {
	fw, err := aipow.New(
		aipow.WithKey([]byte("change-me-please-32-bytes-secret")),
		aipow.WithScorer(model),
		aipow.WithPolicy(pol),
		aipow.WithSource(store),
	)
	if err != nil {
		log.Fatalf("assemble framework: %v", err)
	}
	var servedPayloads atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		servedPayloads.Add(1)
		_, _ = io.WriteString(w, "payload")
	})
	protected, err := aipow.NewHTTPMiddleware(fw, handler, aipow.WithTrustedIPHeader("X-Demo-IP"))
	if err != nil {
		log.Fatalf("wrap middleware: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	server := &http.Server{Handler: protected, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	url := fmt.Sprintf("http://%s/", ln.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), demoDuration)
	defer cancel()

	type classResult struct {
		served  int64
		latency []time.Duration
		mu      sync.Mutex
	}
	var benRes, botRes classResult
	var wg sync.WaitGroup

	runClient := func(ip string, res *classResult, think time.Duration) {
		defer wg.Done()
		client := &http.Client{Transport: aipow.NewHTTPTransport()}
		for ctx.Err() == nil {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return
			}
			req.Header.Set("X-Demo-IP", ip)
			start := time.Now()
			resp, err := client.Do(req)
			if err != nil {
				return // context expired mid-solve
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				res.mu.Lock()
				res.served++
				res.latency = append(res.latency, time.Since(start))
				res.mu.Unlock()
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(think):
			}
		}
	}
	for _, ip := range benignIPs {
		wg.Add(1)
		go runClient(ip, &benRes, 200*time.Millisecond) // humans pause
	}
	for _, ip := range botIPs {
		wg.Add(1)
		go runClient(ip, &botRes, 0) // bots hammer
	}
	wg.Wait()

	report := func(name string, res *classResult, n int) {
		res.mu.Lock()
		defer res.mu.Unlock()
		med := time.Duration(0)
		if len(res.latency) > 0 {
			sort.Slice(res.latency, func(i, j int) bool { return res.latency[i] < res.latency[j] })
			med = res.latency[len(res.latency)/2]
		}
		perClient := float64(res.served) / float64(n) / demoDuration.Seconds()
		fmt.Printf("%-7s %3d clients: served %5d (%.1f req/s per client), median latency %v\n",
			name, n, res.served, perClient, med.Round(time.Microsecond))
	}
	report("benign", &benRes, len(benignIPs))
	report("bots", &botRes, len(botIPs))
}
