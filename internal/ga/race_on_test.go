//go:build race

package ga

// raceEnabled gates allocation-count tests: under the race detector
// sync.Pool drops items at random, so a pooled tile may be allocated
// again.
const raceEnabled = true
