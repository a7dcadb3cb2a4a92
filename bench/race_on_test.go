//go:build race

package main

// raceEnabled relaxes the one assertion the race detector falsifies: it
// makes sync.Pool drop items at random, so the zero-allocation read path
// allocates under -race.
const raceEnabled = true
