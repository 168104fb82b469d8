//go:build race

package slot

// raceEnabled is true when the race detector is compiled in. Tests that count
// allocations a sync.Pool saves skip under it: the detector makes the pool
// drop items at random.
const raceEnabled = true
