package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/trace"
)

// Figure2Result reproduces Figure 2: the kernel timeline of two ResNet50
// training jobs sharing one V100 under multi-threaded TF, and the
// throughput collapse the paper reports (226 -> 116 images/s per model).
type Figure2Result struct {
	// Spans holds the per-kernel spans of the co-run in start order
	// (Figure 2's nvprof view).
	Spans []device.Span
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

	// Co-run with its kernel spans recorded.
	eng := sim.NewEngine()
	machine := machineFor(eng, "V100")
	rec := obs.NewRecorder(0)
	machine.Bus().Subscribe(rec, obs.KindKernelSpan)
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
	spans := trace.Spans(rec.Events())
	result.Spans = spans
	result.CoRunImgPerSec[0] = float64(a.Iterations*batch) / window.Seconds()
	result.CoRunImgPerSec[1] = float64(b.Iterations*batch) / window.Seconds()
	ctxs := trace.Contexts(spans)
	if len(ctxs) >= 2 {
		busy := trace.BusyTime(spans, ctxs[0])
		if busy > 0 {
			overlap := trace.OverlapTime(spans, ctxs[0], ctxs[1]) + trace.OverlapTime(spans, ctxs[1], ctxs[0])
			result.OverlapFraction = float64(overlap) / float64(busy)
		}
	}
	return result
}
