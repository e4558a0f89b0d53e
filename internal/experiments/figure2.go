package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/sim"
	"switchflow/internal/trace"
)

// Figure2Result reproduces Figure 2: the kernel timeline of two ResNet50
// training jobs sharing one V100 under multi-threaded TF, and the
// throughput collapse the paper reports (226 -> 116 images/s per model).
type Figure2Result struct {
	// Timeline holds the per-kernel spans of the co-run (Figure 2's
	// nvprof view).
	Timeline *trace.Timeline
	// SoloImgPerSec is one ResNet50 training alone.
	SoloImgPerSec float64
	// CoRunImgPerSec is each model's throughput when sharing.
	CoRunImgPerSec [2]float64
	// OverlapFraction is the share of ctx-1 kernel time during which a
	// ctx-2 kernel was simultaneously executing — near zero, showing the
	// serialization the paper observed.
	OverlapFraction float64
}

// Figure2 runs the experiment over the given virtual window.
func Figure2(window time.Duration) Figure2Result {
	const batch = 16

	// Solo run.
	soloEng := sim.NewEngine()
	soloMachine := machineFor(soloEng, "V100")
	solo := baseline.New(soloEng, soloMachine, baseline.ThreadedTF)
	soloJob, err := solo.AddJob(trainConfig("solo", "ResNet50", batch, 1))
	if err != nil {
		panic(err)
	}
	soloEng.RunUntil(window)
	result := Figure2Result{
		SoloImgPerSec: float64(soloJob.Iterations*batch) / window.Seconds(),
	}

	// Co-run with a timeline attached.
	eng := sim.NewEngine()
	machine := machineFor(eng, "V100")
	tl := &trace.Timeline{}
	tl.AttachBus(machine.Bus())
	sched := baseline.New(eng, machine, baseline.ThreadedTF)
	a, err := sched.AddJob(trainConfig("resnet50-a", "ResNet50", batch, 1))
	if err != nil {
		panic(err)
	}
	b, err := sched.AddJob(trainConfig("resnet50-b", "ResNet50", batch, 1))
	if err != nil {
		panic(err)
	}
	eng.RunUntil(window)
	result.Timeline = tl
	result.CoRunImgPerSec[0] = float64(a.Iterations*batch) / window.Seconds()
	result.CoRunImgPerSec[1] = float64(b.Iterations*batch) / window.Seconds()
	ctxs := tl.Contexts()
	if len(ctxs) >= 2 {
		busy := tl.BusyTime(ctxs[0])
		if busy > 0 {
			overlap := tl.OverlapTime(ctxs[0], ctxs[1]) + tl.OverlapTime(ctxs[1], ctxs[0])
			result.OverlapFraction = float64(overlap) / float64(busy)
		}
	}
	return result
}
