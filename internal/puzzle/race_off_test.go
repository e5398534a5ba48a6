//go:build !race

package puzzle

const raceEnabled = false
