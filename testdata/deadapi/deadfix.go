// Package deadfix is the fixture's façade: which of its exports the
// gate must flag, and which it must pass.
package deadfix

import "deadfix/internal/lib"

// Handle is live: the consumer module names it.
type Handle = lib.Token

// Spare is dead: nothing outside this package names it. Were it live,
// the exported fields of lib.Config would be exempt with it.
type Spare = lib.Config

// Twin is dead: nothing outside this package names it, although the
// type it denotes is live through Handle.
type Twin = lib.Token

// Summary is live: only Summarize's result names it, and the consumer
// module calls Summarize.
type Summary struct{ Size int }

// Summarize is called by the consumer module.
func Summarize(h Handle) Summary { return Summary{Size: Twin(h).ID} }

// RootTestOnly is dead: only a test of this package calls it.
func RootTestOnly() Spare { return Spare{} }
