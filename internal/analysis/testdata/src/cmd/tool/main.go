// Command tool is cmd-exemption corpus: main programs may panic, read
// the clock, call Must wrappers, and drop errors without findings. The
// immutable check has no exemption: a command may not edit a network.
package main

import (
	"fmt"
	"time"

	"example.com/vetcorpus/internal/nn"
)

func main() {
	start := time.Now()
	n := nn.MustBuild("resnet")
	if n == nil {
		panic("unreachable")
	}
	n.Name = "renamed" // want `\[immutable\] write to internal/nn\.Network\.Name outside internal/nn`
	fmt.Println(n.Name, time.Since(start))
}
