// Command powclient issues requests against a PoW-protected server,
// solving challenges transparently and reporting latency and solve cost:
//
//	powclient -url http://localhost:8080/api -n 10
//	powclient -url http://localhost:8080/api -n 100 -concurrency 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"aipow"
	"aipow/internal/metrics"
)

func main() {
	log.SetFlags(0)
	url := flag.String("url", "http://localhost:8080/", "target URL")
	n := flag.Int("n", 10, "number of requests")
	concurrency := flag.Int("concurrency", 1, "parallel workers")
	flag.Parse()
	if *n < 1 || *concurrency < 1 {
		log.Fatal("powclient: -n and -concurrency must be positive")
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

	fmt.Printf("requests: %d ok, %d failed\n", latency.Count(), failures)
	if latency.Count() > 0 {
		fmt.Printf("latency : median %.2f ms  p90 %.2f ms  mean %.2f ms\n",
			latency.Quantile(0.5), latency.Quantile(0.9), latency.Mean())
	}
	if solves > 0 {
		fmt.Printf("solving : %d puzzles, %d total hashes, median solve %.3f ms\n",
			solves, attempts, solveMS.Quantile(0.5))
	}
}
