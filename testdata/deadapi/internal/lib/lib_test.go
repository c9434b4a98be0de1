package lib

import "testing"

func TestPoke(t *testing.T) {
	var p Poker = New()
	p.Poke()
	Unused()
	unused()
}
