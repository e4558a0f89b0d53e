package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/workload"
)

// Figure7Row is one model group of Figure 7: the throughputs of two
// co-running training jobs, their solo baselines, and crash outcomes.
type Figure7Row struct {
	Subfigure string // "a".."f"
	Scheduler string // "threaded-tf", "mps", "switchflow"
	// Background is the fixed job of the subfigure; Model the varying one.
	Background string
	Model      string
	// Solo and CoRun throughputs in images/s; zero when crashed.
	BackgroundSolo  float64
	BackgroundCoRun float64
	ModelSolo       float64
	ModelCoRun      float64
	// OOM records a crash of either job under free sharing / MPS.
	OOM bool
	// LowDevice reports where SwitchFlow migrated the low-priority job.
	LowDevice string
}

// figure7Models is the varying-model axis.
var figure7Models = []string{
	"ResNet50", "VGG16", "DenseNet121", "DenseNet169",
	"InceptionResNetV2", "InceptionV3", "MobileNetV2",
}

const (
	figure7Batch   = 32
	figure7Measure = 30 * time.Second
	figure7Warm    = 5 * time.Second
)

// Figure7 regenerates all six subfigures. Cells run on the parallel
// harness in the serial sweep order (subfigure-major).
func Figure7() []Figure7Row {
	tf, mps := baseline.ThreadedTF, baseline.MPS
	subfigures := []func(model string) Figure7Row{
		func(m string) Figure7Row { return Figure7Baseline(tf, "a", "GTX 1080 Ti", "ResNet50", m) },
		func(m string) Figure7Row { return Figure7Baseline(tf, "b", "RTX 2080 Ti", "VGG16", m) },
		func(m string) Figure7Row { return Figure7Baseline(mps, "c", "V100", "ResNet50", m) },
		func(m string) Figure7Row { return Figure7SwitchFlow("d", nil, "ResNet50", m) },
		func(m string) Figure7Row { return Figure7SwitchFlow("e", twoGPU(), "ResNet50", m) },
		func(m string) Figure7Row { return Figure7SwitchFlow("f", twoGPU(), "VGG16", m) },
	}
	type cell struct {
		subfigure func(model string) Figure7Row
		model     string
	}
	var cells []cell
	for _, sub := range subfigures {
		for _, model := range figure7Models {
			cells = append(cells, cell{sub, model})
		}
	}
	return harness.Map(cells, func(c cell) Figure7Row { return c.subfigure(c.model) })
}

// twoGPU describes the 1080 Ti + 2080 Ti server: the high-priority job
// wants the faster 2080 Ti (gpu:1); the low-priority job falls back to the
// 1080 Ti (gpu:0).
func twoGPU() []device.GPUClass {
	return []device.GPUClass{device.ClassGTX1080Ti, device.ClassRTX2080Ti}
}

// soloThroughput measures one training job alone on the machine layout.
func soloThroughput(gpus []device.GPUClass, gpu device.ID, model string) float64 {
	w := newWorld(scheduler{policy: baseline.ThreadedTF}, device.ClassXeonDual, gpus...)
	cfg := trainConfig("solo", model, figure7Batch, 1)
	cfg.Device = gpu
	return w.imgPerSec(figure7Warm, figure7Measure, must(w.add(cfg)))[0]
}

// Figure7Baseline runs one co-run cell of a baseline policy (threaded TF
// or MPS) on the named GPU; the row's Scheduler is the policy's name.
func Figure7Baseline(policy baseline.Policy, sub, gpu, background, model string) Figure7Row {
	class, _ := paperGPU(gpu)
	gpus := []device.GPUClass{class}
	row := Figure7Row{
		Subfigure:      sub,
		Scheduler:      policy.String(),
		Background:     background,
		Model:          model,
		BackgroundSolo: soloThroughput(gpus, device.GPUID(0), background),
		ModelSolo:      soloThroughput(gpus, device.GPUID(0), model),
	}
	w := newWorld(scheduler{policy: policy}, device.ClassXeonDual, gpus...)
	bg := must(w.add(trainConfig("bg", background, figure7Batch, 1)))
	other := must(w.add(trainConfig("model", model, figure7Batch, 1)))
	rates := w.imgPerSec(figure7Warm, figure7Measure, bg, other)
	row.OOM = bg.Crashed() || other.Crashed()
	row.BackgroundCoRun, row.ModelCoRun = rates[0], rates[1]
	return row
}

// Figure7SwitchFlow runs one SwitchFlow cell: the low-priority background
// job starts on the preferred GPU, then the high-priority model arrives
// and preempts it; the background migrates to its fallback (a slower GPU,
// or the CPU when gpus is nil, i.e. subfigure d's CPUs + RTX 2080 Ti).
func Figure7SwitchFlow(sub string, gpus []device.GPUClass, background, model string) Figure7Row {
	var (
		highDev   device.ID
		fallbacks []device.ID
	)
	if gpus == nil {
		gpus = []device.GPUClass{device.ClassRTX2080Ti}
		highDev = device.GPUID(0)
		fallbacks = []device.ID{device.CPUID}
	} else {
		highDev = device.GPUID(1) // the 2080 Ti
		fallbacks = []device.ID{device.GPUID(0), device.CPUID}
	}
	row := Figure7Row{
		Subfigure:      sub,
		Scheduler:      "switchflow",
		Background:     background,
		Model:          model,
		BackgroundSolo: soloThroughput(gpus, highDev, background),
		ModelSolo:      soloThroughput(gpus, highDev, model),
	}
	w := newWorld(scheduler{switchFlow: true}, device.ClassXeonDual, gpus...)
	low := must(w.add(workload.Config{
		Name:      "low",
		Model:     mustSpec(background),
		Batch:     figure7Batch,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    highDev,
		Fallbacks: fallbacks,
	}))
	w.eng.RunUntil(figure7Warm)
	highCfg := trainConfig("high", model, figure7Batch, 2)
	highCfg.Device = highDev
	high := must(w.add(highCfg))
	// Let the preemption and migration settle before measuring.
	rates := w.imgPerSec(figure7Warm+5*time.Second, figure7Measure, low, high)
	row.OOM = low.Crashed() || high.Crashed()
	row.BackgroundCoRun, row.ModelCoRun = rates[0], rates[1]
	row.LowDevice = w.sf.JobDevice(low).String()
	return row
}
