//go:build race

package main

// raceEnabled gates the full-size artifact regeneration: under the race
// detector the three paper-scale runs take minutes.
const raceEnabled = true
