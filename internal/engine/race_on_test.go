//go:build race

package engine

// raceEnabled reports a -race build, whose sync.Pool drops objects at
// random: an allocation count measured there is not the program's.
const raceEnabled = true
