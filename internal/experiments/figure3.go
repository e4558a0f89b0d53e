package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/harness"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// Figure3Row is one bar of Figure 3: for a solo model on one GPU, the
// average session length, the GPU-busy time within it, and the resulting
// idle fraction caused by pipeline imbalance.
type Figure3Row struct {
	GPU       string
	Mode      string // "training" or "inference"
	Model     string
	Batch     int
	SessionMS float64
	GPUBusyMS float64
	IdleFrac  float64 // 1 - busy/session
}

// figure3Models are the nine CNNs of Figure 3.
var figure3Models = []string{
	"ResNet50", "VGG16", "VGG19", "DenseNet121", "DenseNet169",
	"InceptionResNetV2", "InceptionV3", "MobileNetV2", "NASNetMobile",
}

// figure3Setups are the six subfigures (a)-(f).
var figure3Setups = []struct {
	gpu      string
	training bool
	batch    int
}{
	{"RTX 2080 Ti", true, 32},
	{"V100", true, 32},
	{"Jetson TX2", true, 8},
	{"RTX 2080 Ti", false, 128},
	{"V100", false, 128},
	{"Jetson TX2", false, 8},
}

// Figure3 measures each model/GPU/mode combination over iters sessions
// (the paper averages 200). Cells run on the parallel harness; rows come
// back in the serial sweep order (setup-major, model-minor).
func Figure3(iters int) []Figure3Row {
	type cell struct {
		gpu      string
		training bool
		batch    int
		model    string
	}
	var cells []cell
	for _, setup := range figure3Setups {
		for _, model := range figure3Models {
			cells = append(cells, cell{setup.gpu, setup.training, setup.batch, model})
		}
	}
	return harness.Map(cells, func(c cell) Figure3Row {
		return figure3One(c.gpu, c.model, c.training, c.batch, iters)
	})
}

func figure3One(gpu, model string, training bool, batch, iters int) Figure3Row {
	eng := sim.NewEngine()
	machine := machineFor(eng, gpu)
	sched := baseline.New(eng, machine, baseline.ThreadedTF)

	var cfg workload.Config
	mode := "inference"
	if training {
		cfg = trainConfig("solo", model, batch, 1)
		mode = "training"
	} else {
		cfg = saturatedConfig("solo", model, batch)
	}
	job, err := sched.AddJob(cfg)
	if err != nil {
		panic(err)
	}

	const warmup = 3
	horizon := 24 * time.Hour // the condition, not the horizon, terminates
	runUntil(eng, horizon, func() bool { return job.Iterations >= warmup || job.Crashed() })
	if job.Crashed() {
		return Figure3Row{GPU: gpu, Mode: mode, Model: model, Batch: batch}
	}
	startTime := eng.Now()
	startBusy := machine.GPU(0).BusyTime()
	runUntil(eng, horizon, func() bool { return job.Iterations >= warmup+iters || job.Crashed() })
	span := eng.Now() - startTime
	busy := machine.GPU(0).BusyTime() - startBusy
	n := job.Iterations - warmup
	if n <= 0 {
		return Figure3Row{GPU: gpu, Mode: mode, Model: model, Batch: batch}
	}
	session := span / time.Duration(n)
	busyPer := busy / time.Duration(n)
	idle := 1 - float64(busyPer)/float64(session)
	if idle < 0 {
		idle = 0
	}
	return Figure3Row{
		GPU:       gpu,
		Mode:      mode,
		Model:     model,
		Batch:     batch,
		SessionMS: session.Seconds() * 1e3,
		GPUBusyMS: busyPer.Seconds() * 1e3,
		IdleFrac:  idle,
	}
}
