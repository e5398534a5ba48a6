//go:build race

package main

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts through pooled scratch are not meaningful.
const raceEnabled = true
