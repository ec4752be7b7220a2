package eval

import (
	"context"
	"strings"
	"testing"
)

// TestMeasureBenchWarmStartRoundTrip is the driver-level pin of the
// acceptance criterion: a measurement bench warm-started from a spill
// file written by an earlier ("cold") invocation must report a nonzero
// disk-warm hit rate and — enforced inside the driver against the
// brute-force baseline — bit-identical measurements. Each run measures
// through its own fresh cache, so the second one stands for a new
// process.
func TestMeasureBenchWarmStartRoundTrip(t *testing.T) {
	scale := QuickScale()
	dir := t.TempDir()
	var logged []string
	progress := func(msg string) { logged = append(logged, msg) }

	cold, err := runMeasureBenchArch(context.Background(), "A72", scale, dir, progress) // no spill file yet
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fast.SimWarmHits != 0 {
		t.Fatalf("cold run reported %d disk-warm hits", cold.Fast.SimWarmHits)
	}
	if cold.Fast.SimMisses == 0 {
		t.Fatal("cold run paid for nothing")
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "no cache file") {
		t.Fatalf("cold run logged %q, want one missing-file diagnostic", logged)
	}
	logged = nil

	warm, err := runMeasureBenchArch(context.Background(), "A72", scale, dir, progress)
	if err != nil {
		t.Fatal(err) // includes the in-driver fast-vs-baseline bit-equality check
	}
	if warm.Fast.SimWarmHits == 0 || len(logged) != 0 {
		t.Errorf("warm run reported %d disk-warm hits (logged %q)", warm.Fast.SimWarmHits, logged)
	}
	// The direct-mapped table drops slot-colliding keys, so the spill is
	// not a complete kernel set — but the warm start must eliminate the
	// bulk of the cold run's simulations.
	if warm.Fast.SimMisses*10 >= cold.Fast.SimMisses {
		t.Errorf("warm run misses %d not well below cold misses %d",
			warm.Fast.SimMisses, cold.Fast.SimMisses)
	}
}
