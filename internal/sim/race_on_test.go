//go:build race

package sim

// raceEnabled: the race detector slows the full quick suite several-fold,
// and TestSuiteInvariantsHold already runs every scenario under it.
const raceEnabled = true
