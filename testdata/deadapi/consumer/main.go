package main

import (
	"fmt"

	"deadfix/internal/lib"
	"deadfix/internal/obs"
)

func main() {
	fmt.Println(lib.ConsumerOnly(), lib.Apply(lib.Config{Consumer: 2}), lib.Build(lib.Config{}), obs.MetricConsumerRead)
}
