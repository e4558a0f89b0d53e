package experiments

import (
	"slices"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/harness"
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
// A cell in which any job crashed is a zero row.
func Figure8Cell(gpu, model string, training bool, batch, iters int) Figure8Row {
	mode := "inference"
	if training {
		mode = "training"
	}
	cfgs := []workload.Config{
		collocatedConfig("m0", model, training, batch),
		collocatedConfig("m1", model, training, batch),
	}
	row := Figure8Row{GPU: gpu, Mode: mode, Batch: batch, Model: model}
	if base, reuse, gain, ok := versusTimeSlice(gpu, cfgs, iters, true); ok {
		row.BaselineSec, row.ReuseSec, row.ImprovePct = base, reuse, gain
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

// versusTimeSlice measures cfgs on gpu under session-based time slicing
// and then under SwitchFlow, as one shared-input group when shared, else
// as independent jobs. It returns both times in seconds and SwitchFlow's
// gain over time slicing in percent; ok is false when a job crashed in
// either arm.
func versusTimeSlice(gpu string, cfgs []workload.Config, iters int, shared bool) (baseSec, sfSec, gainPct float64, ok bool) {
	base, baseOK := measure(gpu, scheduler{policy: baseline.TimeSlice}, false, cfgs, iters)
	sf, sfOK := measure(gpu, scheduler{switchFlow: true}, shared, cfgs, iters)
	if !baseOK || !sfOK {
		return 0, 0, 0, false
	}
	if base > 0 {
		gainPct = (1 - sf.Seconds()/base.Seconds()) * 100
	}
	return base.Seconds(), sf.Seconds(), gainPct, true
}

// measure returns the virtual time for every job of cfgs to complete
// iters sessions under s on gpu, the jobs added one by one or, when
// shared, as one SwitchFlow shared-input group. The run stops at the
// first crash, and ok is false if a job crashed.
func measure(gpu string, s scheduler, shared bool, cfgs []workload.Config, iters int) (d time.Duration, ok bool) {
	w := onGPU(gpu, s)
	var jobs []*workload.Job
	if shared {
		var err error
		if _, jobs, err = w.sf.AddSharedGroup(cfgs); err != nil {
			panic(err)
		}
	} else {
		for _, cfg := range cfgs {
			jobs = append(jobs, must(w.add(cfg)))
		}
	}
	crashed := func() bool { return slices.ContainsFunc(jobs, (*workload.Job).Crashed) }
	running := func(j *workload.Job) bool { return j.Iterations < iters }
	w.runUntil(measurementHorizon, func() bool { return crashed() || !slices.ContainsFunc(jobs, running) })
	return w.eng.Now(), !crashed()
}
