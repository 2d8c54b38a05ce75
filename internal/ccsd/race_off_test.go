//go:build !race

package ccsd

const raceEnabled = false
