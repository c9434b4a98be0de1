package main

import (
	"fmt"

	"deadfix/internal/lib"
)

func main() { fmt.Println(lib.ConsumerOnly()) }
