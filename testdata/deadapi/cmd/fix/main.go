package main

import (
	"fmt"

	"deadfix/internal/lib"
	"deadfix/internal/obs"
)

type sizer interface{ Size() int }

var (
	cRead       = obs.NewCounter(obs.MetricRead)
	cRegistered = obs.NewCounter(obs.MetricRegistered)
)

// DefaultConfig composes lib's preset with a setting of its own.
func DefaultConfig() lib.Config {
	c := lib.DefaultConfig(2)
	return lib.Config{Chosen: c.Chosen, Composed: 6}
}

func main() {
	var s sizer = lib.New()
	fmt.Println(s.Size(), s, lib.Advance(), obs.MetricRead, cRead, cRegistered, lib.Apply(DefaultConfig()))
}
