package main

import (
	"fmt"

	"deadfix"
	"deadfix/internal/lib"
	"deadfix/internal/obs"
)

func main() {
	fmt.Println(deadfix.Summarize(deadfix.Handle{ID: 1}), lib.ConsumerOnly(), lib.Apply(lib.Config{Consumer: 2}), lib.Build(lib.Config{}), obs.MetricConsumerRead)
}
