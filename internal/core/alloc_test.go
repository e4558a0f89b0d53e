package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/sim"
)

// allocShape is one scheduler world whose steady state the allocation
// ratchet measures: warm-up runs the lazy graph, plan and kernel-table
// builds and grows every free list, then the window counts what the
// simulation itself allocates per kernel.
type allocShape struct {
	name           string
	warmup, window time.Duration
	build          func(t *testing.T) (*sim.Engine, *device.Machine)
}

// servePreemptShape is §5.2's setting: single-image ResNet50 serving with
// Poisson arrivals preempts VGG16 training on one V100 on every request.
func servePreemptShape(t *testing.T) (*sim.Engine, *device.Machine) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	mustAdd(t, m, trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0)))
	serve := servingCfg(t, "resnet50-serve", "ResNet50", 2, 40*time.Millisecond)
	serve.PoissonArrivals, serve.ArrivalSeed = true, 7
	serve.PerImageCPU, serve.SLO = 10*time.Millisecond, 100*time.Millisecond
	mustAdd(t, m, serve)
	return eng, machine
}

// corunTrainShape is Figure 7(e)'s: VGG16 trains on the RTX 2080 Ti until
// ResNet50 arrives at 1 s with higher priority and displaces it to the
// V100.
func corunTrainShape(t *testing.T) (*sim.Engine, *device.Machine) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100, device.ClassRTX2080Ti)
	low := trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(1))
	low.Fallbacks = []device.ID{device.GPUID(0), device.CPUID}
	mustAdd(t, m, low)
	eng.Schedule(time.Second, func() {
		mustAdd(t, m, trainCfg(t, "resnet50", "ResNet50", 32, 2, device.GPUID(1)))
	})
	return eng, machine
}

var allocShapes = []allocShape{
	{name: "serve-preempt", warmup: 10 * time.Second, window: 20 * time.Second, build: servePreemptShape},
	{name: "corun-train", warmup: 10 * time.Second, window: 20 * time.Second, build: corunTrainShape},
}

// allocCeilings is the checked-in ratchet: heap allocations per simulated
// kernel over each shape's window. A value may only go down.
var allocCeilings = map[string]float64{
	"serve-preempt": 0.0001,
	"corun-train":   0.00013,
}

// mallocsPerKernel runs shape's warm-up, then its window, and returns the
// heap allocations per kernel launched in the window.
func mallocsPerKernel(t *testing.T, shape allocShape) (float64, uint64) {
	eng, machine := shape.build(t)
	eng.RunUntil(shape.warmup)
	launched := func() uint64 {
		var n uint64
		for _, g := range machine.GPUs {
			n += g.Launched()
		}
		return n
	}
	kernels := launched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.RunUntil(shape.warmup + shape.window)
	runtime.ReadMemStats(&after)
	kernels = launched() - kernels
	if kernels == 0 {
		t.Fatalf("%s: no kernels in the window", shape.name)
	}
	mallocs := after.Mallocs - before.Mallocs
	return float64(mallocs) / float64(kernels), kernels
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// The host-independent allocation ratchet: mallocs per kernel of the
// serve-preempt and corun-train shapes, simulated through the scheduler
// over a fixed horizon, against allocCeilings. The count is process-wide,
// and a race build adds a few allocations of its own to so long a window,
// so the ratchet reads only plain builds.
func TestAllocsPerKernelCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own during the window")
	}
	for _, shape := range allocShapes {
		got, kernels := mallocsPerKernel(t, shape)
		ceiling := allocCeilings[shape.name]
		t.Logf("%s: %.5f allocations per kernel over %d kernels (ceiling %g)", shape.name, got, kernels, ceiling)
		if got > ceiling {
			t.Errorf("%s: %.5f allocations per kernel, above the ceiling %g: find the new allocation on the step, grant or preemption path",
				shape.name, got, ceiling)
		} else if got < ceiling/2 {
			t.Logf("%s: %.5f is under half the ceiling %g: lower allocCeilings to lock in the gain", shape.name, got, ceiling)
		}
	}
}

// allocFree is the most a path may allocate per unit and still count as
// allocation-free: one allocation per 20 units leaves room for a free
// list or queue growing to a new high-water mark and for the recorded
// latency samples growing (amortised), while anything the path allocates
// every time shows as at least 1.
const allocFree = 0.05

// allocsPerUnit steps the world through warm units (lazy builds, free
// lists and buffers reaching their high-water marks), then returns the
// heap allocations per unit over the next n.
func allocsPerUnit(warm, n int, unit func()) float64 {
	for i := 0; i < warm; i++ {
		unit()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		unit()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// until returns a unit that steps eng until progress has grown by one.
func until(t *testing.T, eng *sim.Engine, progress func() int) func() {
	return func() {
		target := progress() + 1
		for progress() < target {
			if !eng.Step() {
				t.Fatal("simulation drained before the next unit")
			}
		}
	}
}

// A plain training step (input stage, grant, compute run, release)
// allocates nothing once warm.
func TestStepAllocFree(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job := mustAdd(t, m, trainCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0)))
	step := until(t, eng, func() int { return job.Iterations })
	if got := allocsPerUnit(20, 200, step); got > allocFree {
		t.Errorf("%v allocations per training step, want at most %v", got, allocFree)
	}
}

// A shared-group member step (the member's turn on the cached batch,
// grant, compute run, release, and the shared input stage every second
// step) allocates nothing once warm, as a plain step does.
func TestGroupStepAllocFree(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	members := addGroup(t, m,
		trainCfg(t, "m0", "ResNet50", 32, 1, device.GPUID(0)),
		trainCfg(t, "m1", "ResNet50", 32, 1, device.GPUID(0)))
	step := until(t, eng, func() int { return members[0].Iterations + members[1].Iterations })
	if got := allocsPerUnit(20, 200, step); got > allocFree {
		t.Errorf("%v allocations per member step, want at most %v", got, allocFree)
	}
}

// migrateAllocs bounds a migrating preemption. Migration is the rare path
// that rebinds: the discarded compute run is not recycled (its in-flight
// kernel still completes into it), so its replacement is built (the Run
// and its two per-node slices), and the new binding, its shard state with
// the four callbacks bound in rebuildShards, and the weight transfer's
// callback are allocated. None of it grows with the model.
const migrateAllocs = 16

// Serving requests that preempt training and let it resume on the same
// GPU (§5.2's setting: the victim has no fallback), and plain victims that
// migrate to a fallback GPU.
func TestPreemptAllocFree(t *testing.T) {
	t.Run("preempt-resume", func(t *testing.T) {
		eng, _, m := newHarness(t, Options{}, device.ClassV100)
		mustAdd(t, m, trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0)))
		serve := servingCfg(t, "serve", "ResNet50", 2, 40*time.Millisecond)
		serve.PoissonArrivals, serve.ArrivalSeed = true, 3
		mustAdd(t, m, serve)
		before := m.Preemptions
		preempt := until(t, eng, func() int { return m.Preemptions })
		if got := allocsPerUnit(200, 400, preempt); got > allocFree {
			t.Errorf("%v allocations per preemption, want at most %v", got, allocFree)
		}
		if m.Preemptions-before != 600 || m.Migrations != 0 {
			t.Fatalf("%d preemptions and %d migrations, want 600 and 0", m.Preemptions-before, m.Migrations)
		}
	})
	t.Run("closed-loop", func(t *testing.T) {
		eng, _, m := newHarness(t, Options{}, device.ClassV100)
		mustAdd(t, m, trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0)))
		serve := servingCfg(t, "serve", "ResNet50", 2, 0)
		serve.ClosedLoop = true
		mustAdd(t, m, serve)
		preempt := until(t, eng, func() int { return m.Preemptions })
		if got := allocsPerUnit(200, 400, preempt); got > allocFree {
			t.Errorf("%v allocations per closed-loop preemption, want at most %v", got, allocFree)
		}
	})
	t.Run("migrate", func(t *testing.T) {
		// Serving on both GPUs bounces the trainer between them: every
		// preemption migrates it to the other GPU.
		eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
		low := trainCfg(t, "vgg16", "VGG16", 32, 1, device.GPUID(0))
		low.Fallbacks = []device.ID{device.GPUID(0), device.GPUID(1)}
		mustAdd(t, m, low)
		for gpu := 0; gpu < 2; gpu++ {
			serve := servingCfg(t, fmt.Sprintf("serve%d", gpu), "ResNet50", 2, 200*time.Millisecond)
			serve.Device, serve.PoissonArrivals, serve.ArrivalSeed = device.GPUID(gpu), true, int64(gpu+1)
			mustAdd(t, m, serve)
		}
		migrate := until(t, eng, func() int { return m.Migrations })
		if got := allocsPerUnit(10, 40, migrate); got > migrateAllocs {
			t.Errorf("%v allocations per migration, want at most %d", got, migrateAllocs)
		}
	})
}

// A gang step (ordered grants, every replica's run, the priced all-reduce
// barrier) and a gang preemption allocate nothing once warm.
func TestGangStepAllocFree(t *testing.T) {
	eng, _, m := newNVLinkHarness(t)
	gang := mustAdd(t, m, gangCfg(t, "ddp", "ResNet50", 32, 1, device.GPUID(0), device.GPUID(1)))
	step := until(t, eng, func() int { return gang.Iterations })
	if got := allocsPerUnit(20, 200, step); got > allocFree {
		t.Errorf("%v allocations per gang step, want at most %v", got, allocFree)
	}
	serve := servingCfg(t, "serve", "MobileNetV2", 9, 100*time.Millisecond)
	serve.PoissonArrivals, serve.ArrivalSeed = true, 5
	mustAdd(t, m, serve)
	preempt := until(t, eng, func() int { return m.Preemptions })
	if got := allocsPerUnit(200, 400, preempt); got > allocFree {
		t.Errorf("%v allocations per gang preemption, want at most %v", got, allocFree)
	}
}
