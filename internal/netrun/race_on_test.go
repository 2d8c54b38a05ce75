//go:build race

package netrun

// raceEnabled gates wall-clock expectations: a race-instrumented
// receiver decodes tiles an order of magnitude slower than a plain one.
const raceEnabled = true
