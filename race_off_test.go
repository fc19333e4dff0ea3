//go:build !race

package tempstream

// raceEnabled reports whether the race detector is compiled in; tests
// that count on sync.Pool keeping what it is given skip under it, since
// the detector makes the pool drop items at random.
const raceEnabled = false
