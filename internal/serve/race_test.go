//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given: allocation pins leave room for the refills there.
const raceEnabled = true
