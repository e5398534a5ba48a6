//go:build !race

package httpmw

const raceEnabled = false
