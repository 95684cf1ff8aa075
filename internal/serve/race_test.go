//go:build race

package serve_test

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Puts, so allocation counts do not hold there.
const raceEnabled = true
