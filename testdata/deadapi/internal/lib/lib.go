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

// Config is live: the consumer module builds one.
type Config struct {
	// TestOnly is dead: only a test sets it.
	TestOnly int
	// Defaulted is dead: only withDefaults, which writes its own copy,
	// sets it.
	Defaulted int
	// Consumer is live: the consumer module sets it.
	Consumer int
	// Counted is live: a pointer method writes it.
	Counted int
	// Constructed is dead: only Build, which receives its Config by
	// value, sets it.
	Constructed int
	// Decoded is exempt: its tag is for a decoder, which writes it.
	Decoded int `json:"decoded"`
	// Preset is dead: only DefaultConfig sets it, from a constant.
	Preset int
	// Chosen is live: DefaultConfig sets it from its parameter.
	Chosen int
	// Composed is live: cmd/fix's DefaultConfig, in another package,
	// sets it.
	Composed int
}

// DefaultConfig is called by cmd/fix.
func DefaultConfig(x int) Config {
	return Config{Preset: 5, Chosen: x + 1}
}

// withDefaults fills zero fields of its copy.
func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c
}

// count records one use.
func (c *Config) count() { c.Counted++ }

// Apply is called by the consumer module.
func Apply(c Config) int {
	c = c.withDefaults()
	c.count()
	return c.TestOnly + c.Defaulted + c.Consumer + c.Counted + c.Decoded + c.Preset + c.Chosen + c.Composed
}

// Build is called by the consumer module. It defaults its own copy of
// c, as a constructor does.
func Build(c Config) int {
	if c.Constructed == 0 {
		c.Constructed = 4
	}
	return c.Constructed
}

// Token is live: the façade aliases it as Handle, which the consumer
// module names.
type Token struct{ ID int }
