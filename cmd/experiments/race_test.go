//go:build race

package main

// raceEnabled reports whether the test binary runs under the race
// detector, where the full suite is too slow to run.
const raceEnabled = true
