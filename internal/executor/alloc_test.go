package executor

import (
	"testing"

	"switchflow/internal/device"
	"switchflow/internal/models"
)

// allocsPerRunBound caps what one activation may allocate: the Run, its
// two per-node slices and its two bound callbacks. It must not grow with
// the subgraph's node count.
const allocsPerRunBound = 5

// Back-to-back ResNet50 BS=32 training iterations: after warm-up, each
// Run's allocations are a constant, not one or more per kernel.
func TestRunAllocsBoundedPerRun(t *testing.T) {
	f := newFixture(device.ClassXeonDual.Cores - 4)
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	subs := buildSubgraphs(t, spec, models.BuildConfig{Batch: 32, Training: true, Device: device.GPUID(0)})
	compute := subs[len(subs)-1]
	cfg := f.gpuConfig(device.NewStream(f.machine.GPU(0)))
	cfg.Bus = f.machine.Bus()
	runs := 0
	var start func()
	start = func() {
		runs++
		if _, err := Start(f.eng, compute, cfg, start); err != nil {
			t.Fatal(err)
		}
	}
	oneRun := func() {
		for target := runs + 1; runs < target && f.eng.Step(); {
		}
	}
	start()
	oneRun()
	before := f.machine.GPU(0).Launched()
	// AllocsPerRun makes one more, unmeasured, warm-up call.
	allocs := testing.AllocsPerRun(3, oneRun)
	kernels := (f.machine.GPU(0).Launched() - before) / 4
	if kernels < 100 {
		t.Fatalf("%d kernels per run, want a full ResNet50 iteration", kernels)
	}
	if allocs > allocsPerRunBound {
		t.Errorf("%v allocations per run of %d nodes and %d kernels, want at most %d",
			allocs, len(compute.Nodes), kernels, allocsPerRunBound)
	}
}
