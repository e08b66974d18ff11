package main

import "testing"

// TestReferenceKernelAllocatesNothing guards the reason the kernel
// reuses its scratch: garbage it left would start a collection that
// the system's first ops after a slice pay for.
func TestReferenceKernelAllocatesNothing(t *testing.T) {
	var s refScratch
	s.iterate() // grow the scratch once
	if n := testing.AllocsPerRun(100, s.iterate); n != 0 {
		t.Fatalf("a kernel iteration allocates %v times, want 0", n)
	}
}
