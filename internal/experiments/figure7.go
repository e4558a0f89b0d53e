package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/sim"
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

// Figure7 regenerates all six subfigures.
func Figure7() []Figure7Row {
	var rows []Figure7Row
	for _, model := range figure7Models {
		rows = append(rows, Figure7Baseline(baseline.ThreadedTF, "a", "GTX 1080 Ti", "ResNet50", model))
	}
	for _, model := range figure7Models {
		rows = append(rows, Figure7Baseline(baseline.ThreadedTF, "b", "RTX 2080 Ti", "VGG16", model))
	}
	for _, model := range figure7Models {
		rows = append(rows, Figure7Baseline(baseline.MPS, "c", "V100", "ResNet50", model))
	}
	for _, model := range figure7Models {
		rows = append(rows, Figure7SwitchFlow("d", nil, "ResNet50", model))
	}
	for _, model := range figure7Models {
		rows = append(rows, Figure7SwitchFlow("e", twoGPU(), "ResNet50", model))
	}
	for _, model := range figure7Models {
		rows = append(rows, Figure7SwitchFlow("f", twoGPU(), "VGG16", model))
	}
	return rows
}

// twoGPU describes the 1080 Ti + 2080 Ti server: the high-priority job
// wants the faster 2080 Ti (gpu:1); the low-priority job falls back to the
// 1080 Ti (gpu:0).
func twoGPU() []device.GPUClass {
	return []device.GPUClass{device.ClassGTX1080Ti, device.ClassRTX2080Ti}
}

// soloThroughput measures one training job alone on the machine layout.
func soloThroughput(gpus []device.GPUClass, gpu device.ID, model string) float64 {
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
	sched := baseline.New(eng, machine, baseline.ThreadedTF)
	cfg := trainConfig("solo", model, figure7Batch, 1)
	cfg.Device = gpu
	job, err := sched.AddJob(cfg)
	if err != nil {
		panic(err)
	}
	eng.RunUntil(figure7Warm)
	start := job.Iterations
	eng.RunUntil(figure7Warm + figure7Measure)
	if job.Crashed() {
		return 0
	}
	return float64((job.Iterations-start)*figure7Batch) / figure7Measure.Seconds()
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
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
	sched := baseline.New(eng, machine, policy)
	bg, err := sched.AddJob(trainConfig("bg", background, figure7Batch, 1))
	if err != nil {
		panic(err)
	}
	other, err := sched.AddJob(trainConfig("model", model, figure7Batch, 1))
	if err != nil {
		panic(err)
	}
	eng.RunUntil(figure7Warm)
	bgStart, otherStart := bg.Iterations, other.Iterations
	eng.RunUntil(figure7Warm + figure7Measure)
	row.OOM = bg.Crashed() || other.Crashed()
	if !bg.Crashed() {
		row.BackgroundCoRun = float64((bg.Iterations-bgStart)*figure7Batch) / figure7Measure.Seconds()
	}
	if !other.Crashed() {
		row.ModelCoRun = float64((other.Iterations-otherStart)*figure7Batch) / figure7Measure.Seconds()
	}
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
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
	m := core.NewManager(eng, machine, core.Options{})
	lowCfg := workload.Config{
		Name:      "low",
		Model:     mustSpec(background),
		Batch:     figure7Batch,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    highDev,
		Fallbacks: fallbacks,
	}
	low, err := m.AddJob(lowCfg)
	if err != nil {
		panic(err)
	}
	eng.RunUntil(figure7Warm)
	highCfg := trainConfig("high", model, figure7Batch, 2)
	highCfg.Device = highDev
	high, err := m.AddJob(highCfg)
	if err != nil {
		panic(err)
	}
	// Let the preemption and migration settle before measuring.
	eng.RunUntil(figure7Warm + 5*time.Second)
	lowStart, highStart := low.Iterations, high.Iterations
	eng.RunUntil(figure7Warm + 5*time.Second + figure7Measure)
	row.OOM = low.Crashed() || high.Crashed()
	row.BackgroundCoRun = float64((low.Iterations-lowStart)*figure7Batch) / figure7Measure.Seconds()
	row.ModelCoRun = float64((high.Iterations-highStart)*figure7Batch) / figure7Measure.Seconds()
	row.LowDevice = m.JobDevice(low).String()
	return row
}
