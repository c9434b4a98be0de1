package main

import (
	"fmt"

	"deadfix/internal/lib"
)

type sizer interface{ Size() int }

func main() {
	var s sizer = lib.New()
	fmt.Println(s.Size(), s, lib.Advance())
}
