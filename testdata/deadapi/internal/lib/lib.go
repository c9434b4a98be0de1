package lib

import "strconv"

// Widget is live: New, which cmd/fix calls, returns it.
type Widget struct{ n int }

// New is called by cmd/fix.
func New() *Widget { return &Widget{n: 3} }

// String is live through fmt.Stringer, although nothing calls it by name.
func (w *Widget) String() string { return "widget " + strconv.Itoa(w.n) }

// Size is live: cmd/fix calls it through an interface.
func (w *Widget) Size() int { return w.n }

// Poke is dead: only Poker declares it, and only a test uses Poker.
func (w *Widget) Poke() { w.n++ }

// Poker is dead: only a test uses it.
type Poker interface{ Poke() }

// Unused is dead: nothing calls it.
func Unused() {}

// ConsumerOnly is live: only the consumer module calls it.
func ConsumerOnly() int { return 7 }

// Advance is called by cmd/fix.
func Advance() int {
	var s stepper = &counter{}
	return s.step()
}

// stepper is live: Advance calls its method.
type stepper interface{ step() int }

// counter satisfies stepper.
type counter struct{ n int }

// step is live through stepper, although nothing calls it by name.
func (c *counter) step() int { c.n++; return c.n }

// unused is dead: only a test calls it.
func unused() {}
