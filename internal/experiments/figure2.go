package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/device"
	"switchflow/internal/obs"
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
	tf := scheduler{policy: baseline.ThreadedTF}
	solo := onGPU("V100", tf)
	soloJob := must(solo.add(trainConfig("solo", "ResNet50", batch, 1)))
	result := Figure2Result{SoloImgPerSec: solo.imgPerSec(0, window, soloJob)[0]}

	// Co-run with its kernel spans recorded.
	w := onGPU("V100", tf)
	rec := obs.NewRecorder(0)
	w.machine.Bus().Subscribe(rec, obs.KindKernelSpan)
	a := must(w.add(trainConfig("resnet50-a", "ResNet50", batch, 1)))
	b := must(w.add(trainConfig("resnet50-b", "ResNet50", batch, 1)))
	result.CoRunImgPerSec = [2]float64(w.imgPerSec(0, window, a, b))
	spans := trace.Spans(rec.Events())
	result.Spans = spans
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
