package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/harness"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// Figure8Row is one bar of Figure 8: the performance improvement of
// SwitchFlow's input reuse over session-based time slicing for two
// identical collocated models.
type Figure8Row struct {
	GPU         string
	Mode        string // "training" or "inference"
	Batch       int
	Model       string
	BaselineSec float64 // time slicing: completion of N iterations each
	ReuseSec    float64 // SwitchFlow shared-input group
	ImprovePct  float64 // (baseline - reuse) / baseline * 100
}

// figure8Setups are the five subfigures (a)-(e).
var figure8Setups = []struct {
	gpu      string
	training bool
	batch    int
}{
	{"RTX 2080 Ti", true, 32},
	{"V100", true, 32},
	{"RTX 2080 Ti", false, 128},
	{"V100", false, 128},
	{"Jetson TX2", false, 8},
}

// figure8Models follows the paper's model set, minus the largest two that
// do not fit twice on the small GPUs.
var figure8Models = []string{
	"ResNet50", "VGG16", "DenseNet121", "InceptionV3",
	"MobileNet", "MobileNetV2", "NASNetMobile",
}

// Figure8 measures identical-model input reuse; iters is the per-model
// session count (the paper uses 200). Cells run on the parallel harness in
// the serial sweep order.
func Figure8(iters int) []Figure8Row {
	type cell struct {
		gpu      string
		training bool
		batch    int
		model    string
	}
	var cells []cell
	for _, setup := range figure8Setups {
		for _, model := range figure8Models {
			cells = append(cells, cell{setup.gpu, setup.training, setup.batch, model})
		}
	}
	return harness.Map(cells, func(c cell) Figure8Row {
		return Figure8Cell(c.gpu, c.model, c.training, c.batch, iters)
	})
}

// Figure8Cell runs one (gpu, model, mode) cell with two identical models.
func Figure8Cell(gpu, model string, training bool, batch, iters int) Figure8Row {
	mode := "inference"
	if training {
		mode = "training"
	}
	cfgs := []workload.Config{
		collocatedConfig("m0", model, training, batch),
		collocatedConfig("m1", model, training, batch),
	}
	base := measureTimeSlice(gpu, cfgs, iters)
	reuse := measureSharedGroup(gpu, cfgs, iters)
	row := Figure8Row{
		GPU:         gpu,
		Mode:        mode,
		Batch:       batch,
		Model:       model,
		BaselineSec: base.Seconds(),
		ReuseSec:    reuse.Seconds(),
	}
	if base > 0 {
		row.ImprovePct = (1 - reuse.Seconds()/base.Seconds()) * 100
	}
	return row
}

// collocatedConfig builds a throughput-style job config for the reuse and
// interleaving experiments.
func collocatedConfig(name, model string, training bool, batch int) workload.Config {
	if training {
		return trainConfig(name, model, batch, 1)
	}
	return saturatedConfig(name, model, batch)
}

// measurementHorizon bounds one measurement run.
const measurementHorizon = 6 * time.Hour

// measureTimeSlice returns the virtual time for every job to complete
// iters sessions under session-based time slicing.
func measureTimeSlice(gpu string, cfgs []workload.Config, iters int) time.Duration {
	eng := sim.NewEngine()
	machine := machineFor(eng, gpu)
	sched := baseline.New(eng, machine, baseline.TimeSlice)
	jobs := make([]*workload.Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		job, err := sched.AddJob(cfg)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, job)
	}
	runUntil(eng, measurementHorizon, func() bool { return allDone(jobs, iters) })
	return eng.Now()
}

// measureSharedGroup returns the time for a SwitchFlow shared-input group
// to complete iters sessions per member.
func measureSharedGroup(gpu string, cfgs []workload.Config, iters int) time.Duration {
	eng := sim.NewEngine()
	machine := machineFor(eng, gpu)
	m := core.NewManager(eng, machine, core.Options{})
	_, jobs, err := m.AddSharedGroup(cfgs)
	if err != nil {
		panic(err)
	}
	runUntil(eng, measurementHorizon, func() bool { return allDone(jobs, iters) })
	return eng.Now()
}

// measureSwitchFlowIndependent returns the time for independent SwitchFlow
// jobs (no input sharing, invariants only) to complete iters sessions.
func measureSwitchFlowIndependent(gpu string, cfgs []workload.Config, iters int) time.Duration {
	eng := sim.NewEngine()
	machine := machineFor(eng, gpu)
	m := core.NewManager(eng, machine, core.Options{})
	jobs := make([]*workload.Job, 0, len(cfgs))
	for _, cfg := range cfgs {
		job, err := m.AddJob(cfg)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, job)
	}
	runUntil(eng, measurementHorizon, func() bool { return allDone(jobs, iters) })
	return eng.Now()
}

func allDone(jobs []*workload.Job, iters int) bool {
	for _, j := range jobs {
		if j.Crashed() {
			continue
		}
		if j.Iterations < iters {
			return false
		}
	}
	return true
}
