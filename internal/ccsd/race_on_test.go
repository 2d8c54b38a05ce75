//go:build race

package ccsd

// raceEnabled gates allocation-count tests: the race detector's
// instrumentation allocates inside sync.Pool, making AllocsPerRun
// differences of a few allocations meaningless under -race.
const raceEnabled = true
