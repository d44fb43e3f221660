//go:build !race

package main

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a share of what is put in it on purpose.
const raceEnabled = false
