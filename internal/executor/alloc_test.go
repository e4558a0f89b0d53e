package executor

import (
	"runtime"
	"testing"

	"switchflow/internal/device"
	"switchflow/internal/models"
)

// allocsPerRunBound caps what one activation may allocate: the Run, its
// two per-node slices and its two bound callbacks. It must not grow with
// the subgraph's node count.
const allocsPerRunBound = 5

// runSizeClass is the Go allocation size class a Run fits in. Every
// activation allocates one, so a field that pushes Run into the next class
// (240 B) costs 16 B per Start on every iteration of every job.
const runSizeClass = 224

// boundCallbackBytes is what the two method values bound per Run take: a
// code pointer and the receiver each.
const boundCallbackBytes = 2 * 16

// Sinks keep the reference allocations below on the heap.
var (
	depsSink []int32
	doneSink []bool
)

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Back-to-back ResNet50 BS=32 training iterations: after warm-up, each
// Run's allocations are a constant, not one or more per kernel, and their
// bytes are the Run's size class plus its per-node slices and callbacks.
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

	n := compute.Plan().NumNodes
	perNode := heapBytes(func() {
		depsSink = make([]int32, n)
		doneSink = make([]bool, n)
	})
	const measured = 3
	got := heapBytes(func() {
		for i := 0; i < measured; i++ {
			oneRun()
		}
	})
	if bound := measured * (runSizeClass + perNode + boundCallbackBytes); got > bound {
		t.Errorf("%d runs allocated %d B, want at most %d B: each a Run in the %d B size class, %d B of per-node slices and %d B of callbacks",
			measured, got, bound, runSizeClass, perNode, boundCallbackBytes)
	}
}
