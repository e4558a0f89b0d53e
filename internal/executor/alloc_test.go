package executor

import (
	"runtime"
	"testing"

	"switchflow/internal/device"
	"switchflow/internal/models"
)

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Back-to-back ResNet50 BS=32 training iterations: once warm, a Run —
// every dispatch, launch and completion of a full iteration, and Start
// itself — allocates nothing, because each new activation reuses a Run
// that finished.
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
	if allocs != 0 {
		t.Errorf("%v allocations per run of %d nodes and %d kernels, want 0", allocs, len(compute.Nodes), kernels)
	}
	// AllocsPerRun rounds down; bytes do not.
	if got := heapBytes(func() {
		for i := 0; i < 3; i++ {
			oneRun()
		}
	}); got != 0 {
		t.Errorf("3 runs allocated %d B, want 0", got)
	}
}
