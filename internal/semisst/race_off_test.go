//go:build !race

package semisst

const raceEnabled = false
