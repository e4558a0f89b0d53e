package experiments

import (
	"reflect"
	"testing"

	"switchflow/internal/harness"
)

// TestParallelSweepMatchesSerial is the determinism contract of the
// parallel harness: running a sweep with many workers must produce rows
// identical (values and order) to the serial run, because every cell owns
// its own engine and the harness writes results at the cell's input index.
func TestParallelSweepMatchesSerial(t *testing.T) {
	prev := harness.SetParallelism(1)
	defer harness.SetParallelism(prev)

	const iters = 3
	serial := Figure3(iters)

	harness.SetParallelism(8)
	parallel := Figure3(iters)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Figure3 rows differ from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestParallelGandivaMatchesSerial covers a sweep whose cells are heavier
// (each runs two full manager scenarios), catching shared-state races that
// a light sweep might not exercise.
func TestParallelGandivaMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy cells; skipped in -short mode")
	}
	prev := harness.SetParallelism(1)
	defer harness.SetParallelism(prev)

	const requests = 10
	serial := Gandiva(requests)

	harness.SetParallelism(4)
	parallel := Gandiva(requests)

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Gandiva rows differ from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}
