//go:build race

package httpmw

// raceEnabled: under the race detector sync.Pool drops items at random,
// so pooled hot paths allocate and allocation counts mean nothing.
const raceEnabled = true
