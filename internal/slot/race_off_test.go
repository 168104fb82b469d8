//go:build !race

package slot

const raceEnabled = false
