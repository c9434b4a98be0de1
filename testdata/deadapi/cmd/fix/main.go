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

func main() {
	var s sizer = lib.New()
	fmt.Println(s.Size(), s, lib.Advance(), obs.MetricRead, cRead, cRegistered)
}
