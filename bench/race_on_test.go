//go:build race

package main

// raceEnabled: the race detector slows the timed layers about tenfold, so
// the smoke test skips its comparison with committed micro-benchmarks.
const raceEnabled = true
