//go:build !race

package ga

const raceEnabled = false
