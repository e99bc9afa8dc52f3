package main

import "testing"

// TestSliceCharging runs the traced pass's self-test: on a synthetic
// two-proc engine, span self-times plus the engine's share sum to the
// traced wall time and each layer is charged the time it burned.
func TestSliceCharging(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}
