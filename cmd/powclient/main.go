// Command powclient issues requests against a PoW-protected server,
// solving challenges transparently and reporting latency and solve cost:
//
//	powclient -url http://localhost:8080/api -n 10
//	powclient -url http://localhost:8080/api -n 100 -concurrency 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"aipow"
	"aipow/internal/metrics"
)

func main() {
	log.SetFlags(0)
	// -h has already printed the usage.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("powclient: %v", err)
	}
}

// run issues the requests and prints the report; it fails when any
// request does, so the exit status tells a script whether all passed.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("powclient", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8080/", "target URL")
	n := fs.Int("n", 10, "number of requests")
	concurrency := fs.Int("concurrency", 1, "parallel workers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *concurrency < 1 {
		return errors.New("-n and -concurrency must be positive")
	}

	var mu sync.Mutex
	latency := metrics.NewLatencyHistogram()
	solveMS := metrics.NewLatencyHistogram()
	var attempts, solves, failures uint64

	transport := aipow.NewHTTPTransport(
		aipow.WithSolveObserver(func(s aipow.SolveStats) {
			mu.Lock()
			defer mu.Unlock()
			solves++
			attempts += s.Attempts
			solveMS.ObserveDuration(s.Elapsed)
		}),
	)
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	jobs := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				start := time.Now()
				resp, err := client.Get(*url)
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					log.Printf("powclient: request: %v", err)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode == http.StatusOK {
					latency.ObserveDuration(time.Since(start))
				} else {
					failures++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()

	fmt.Fprintf(stdout, "requests: %d ok, %d failed\n", latency.Count(), failures)
	if s := latency.Snapshot(); s.Count > 0 {
		fmt.Fprintf(stdout, "latency : median %.2f ms  p90 %.2f ms  mean %.2f ms\n", s.P50, s.P90, s.Mean)
	}
	if solves > 0 {
		fmt.Fprintf(stdout, "solving : %d puzzles, %d total hashes, median solve %.3f ms\n",
			solves, attempts, solveMS.Quantile(0.5))
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d requests failed", failures, *n)
	}
	return nil
}
