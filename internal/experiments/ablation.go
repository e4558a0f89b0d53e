package experiments

import (
	"time"

	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/workload"
)

// AblationRow evaluates one design choice of §3 by toggling it off and
// re-running the canonical collocation (ResNet50 BS=1 inference stream +
// VGG16 BS=32 training on a V100).
type AblationRow struct {
	Variant     string
	ServeP95MS  float64
	TrainImgPS  float64
	PreemptP95  float64 // grant latency p95, ms
	Description string
}

// ablationVariant is one design-choice toggle.
type ablationVariant struct {
	name string
	opts core.Options
	desc string
}

// ablationVariants are the three ablations plus the full design.
var ablationVariants = []ablationVariant{
	{"full", core.Options{},
		"both invariants, async transfer"},
	{"no-gpu-exclusive", core.Options{DisableGPUExclusive: true},
		"invariant 1 off: GPU executors co-run and contend"},
	{"no-free-cpu", core.Options{DisableFreeCPUExecutors: true},
		"invariant 2 off: input runs only under the GPU grant (time slicing)"},
	{"sync-transfer", core.Options{SyncStateTransfer: true},
		"migration state transfer on the preemption critical path"},
}

// Ablation runs the variants on the parallel harness, in declaration
// order.
func Ablation(requests int) []AblationRow {
	return harness.Map(ablationVariants, func(v ablationVariant) AblationRow {
		return ablationOne(v.name, v.desc, v.opts, requests)
	})
}

func ablationOne(name, desc string, opts core.Options, requests int) AblationRow {
	w := onGPU("V100", scheduler{switchFlow: true, opts: opts})
	run := collocate(w, trainConfig("train", "VGG16", 32, 1),
		serveConfig("serve", "ResNet50", 1, 2), requests, time.Hour)
	return AblationRow{
		Variant:     name,
		Description: desc,
		ServeP95MS:  run.serve.Latencies.Percentile(95).Seconds() * 1e3,
		TrainImgPS:  run.trainRate(32),
		PreemptP95:  w.sf.PreemptionLatencies.Percentile(95).Seconds() * 1e3,
	}
}

// AblationMigrationRow compares async vs sync state transfer in the
// two-GPU migration scenario of Figure 7(e), reporting how long the
// high-priority job waits for its first iteration.
type AblationMigrationRow struct {
	Variant          string
	HighFirstStepSec float64
	LowRecoverySec   float64 // low job's first post-migration iteration
}

// AblationMigration runs both transfer modes on the parallel harness.
func AblationMigration() []AblationMigrationRow {
	variants := []ablationVariant{
		{name: "async-transfer", opts: core.Options{}},
		{name: "sync-transfer", opts: core.Options{SyncStateTransfer: true}},
	}
	return harness.Map(variants, func(v ablationVariant) AblationMigrationRow {
		return ablationMigrationOne(v.name, v.opts)
	})
}

func ablationMigrationOne(name string, opts core.Options) AblationMigrationRow {
	w := newWorld(scheduler{switchFlow: true, opts: opts}, device.ClassXeonDual, twoGPU()...)
	low := must(w.add(workload.Config{
		Name:      "low",
		Model:     mustSpec("VGG16"),
		Batch:     32,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    gpu1,
		Fallbacks: fallbackToGPU0,
	}))
	w.eng.RunUntil(5 * time.Second)
	highCfg := trainConfig("high", "ResNet50", 32, 2)
	highCfg.Device = gpu1
	high := must(w.add(highCfg))
	arrival := w.eng.Now()
	lowIters := low.Iterations
	var highFirst, lowFirst time.Duration
	w.runUntil(time.Hour, func() bool {
		if highFirst == 0 && high.Iterations > 0 {
			highFirst = w.eng.Now() - arrival
		}
		if lowFirst == 0 && low.Iterations > lowIters {
			lowFirst = w.eng.Now() - arrival
		}
		return highFirst > 0 && lowFirst > 0
	})
	return AblationMigrationRow{
		Variant:          name,
		HighFirstStepSec: highFirst.Seconds(),
		LowRecoverySec:   lowFirst.Seconds(),
	}
}
