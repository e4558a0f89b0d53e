// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate. Each Figure*/Table* function
// returns the rows/series the paper plots; cmd/swbench prints them and
// bench_test.go wraps them as benchmarks. Iteration counts are
// parameterised so benchmarks can run reduced versions.
package experiments

import (
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// runUntil steps the engine until cond returns true or the virtual horizon
// passes; it reports whether cond was met.
func runUntil(eng *sim.Engine, horizon time.Duration, cond func() bool) bool {
	for {
		if cond != nil && cond() {
			return true
		}
		if eng.Now() >= horizon {
			return false
		}
		if !eng.Step() {
			if cond != nil && cond() {
				return true
			}
			eng.RunUntil(horizon)
			return cond != nil && cond()
		}
	}
}

// collocation is the outcome of one collocate run. The window spans from
// the serving job's arrival to the end of the run.
type collocation struct {
	serve      *workload.Job
	trainIters int // training iterations completed within the window
	window     time.Duration
}

// trainRate is the training throughput over the window, in units of
// perIter per second (1 for steps/s, the batch size for images/s).
func (c collocation) trainRate(perIter int) float64 {
	if c.window <= 0 {
		return 0
	}
	return float64(c.trainIters*perIter) / c.window.Seconds()
}

// collocate runs the serving-vs-training collocation the single-GPU
// experiments share: add the training job, let it run alone for 2s, add
// the serving job, then run until the serving job has completed requests
// requests or the virtual horizon passes. add is the scheduler's AddJob,
// passed as a method value.
func collocate(eng *sim.Engine, add func(workload.Config) (*workload.Job, error),
	train, serve workload.Config, requests int, horizon time.Duration) collocation {
	trainJob, err := add(train)
	if err != nil {
		panic(err)
	}
	eng.RunUntil(2 * time.Second)
	serveJob, err := add(serve)
	if err != nil {
		panic(err)
	}
	start, startIters := eng.Now(), trainJob.Iterations
	runUntil(eng, horizon, func() bool { return serveJob.Latencies.Count() >= requests })
	return collocation{
		serve:      serveJob,
		trainIters: trainJob.Iterations - startIters,
		window:     eng.Now() - start,
	}
}

// tfOrSwitchFlow builds the one scheduler a TF-vs-SwitchFlow arm runs on
// machine, multi-threaded TF or SwitchFlow, and returns its AddJob.
func tfOrSwitchFlow(eng *sim.Engine, machine *device.Machine, switchFlow bool) func(workload.Config) (*workload.Job, error) {
	if switchFlow {
		return core.NewManager(eng, machine, core.Options{}).AddJob
	}
	return baseline.New(eng, machine, baseline.ThreadedTF).AddJob
}

// mustSpec resolves a model name; experiment tables only reference models
// in the zoo, so failure is a programming error.
func mustSpec(name string) *models.Spec {
	spec, err := models.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// paperGPU is device.PaperGPU for the names the experiments hard-code.
func paperGPU(name string) (device.GPUClass, device.CPUClass) {
	gpu, cpu, ok := device.PaperGPU(name)
	if !ok {
		panic("unknown GPU " + name)
	}
	return gpu, cpu
}

// machineFor builds a single-GPU machine with the CPU that accompanies the
// GPU in the paper's testbeds.
func machineFor(eng *sim.Engine, gpu string) *device.Machine {
	class, cpu := paperGPU(gpu)
	return device.NewMachine(eng, cpu, class)
}

// Common placements on the two-GPU server (GTX 1080 Ti = gpu:0,
// RTX 2080 Ti = gpu:1).
var (
	gpu1           = device.GPUID(1)
	fallbackToGPU0 = []device.ID{device.GPUID(0), device.CPUID}
)

// trainConfig is a standard training-job config.
func trainConfig(name, model string, batch, priority int) workload.Config {
	return workload.Config{
		Name:     name,
		Model:    mustSpec(model),
		Batch:    batch,
		Kind:     workload.KindTraining,
		Priority: priority,
		Device:   device.GPUID(0),
	}
}

// serveConfig is a closed-loop serving-job config (the paper's continuous
// request stream, §5.2.1). Serving requests arrive as single decoded
// images, so per-request CPU work is the ~10 ms of one decode rather than
// the batched tf.data pipeline's amortized cost.
func serveConfig(name, model string, batch, priority int) workload.Config {
	return workload.Config{
		Name:        name,
		Model:       mustSpec(model),
		Batch:       batch,
		Kind:        workload.KindServing,
		Priority:    priority,
		Device:      device.GPUID(0),
		ClosedLoop:  true,
		PerImageCPU: 10 * time.Millisecond,
	}
}

// saturatedConfig is a throughput-oriented inference config (Figures
// 8-10). Collocated throughput jobs share one priority class so the GPU
// arbiter round-robins instead of starving anyone.
func saturatedConfig(name, model string, batch int) workload.Config {
	return workload.Config{
		Name:      name,
		Model:     mustSpec(model),
		Batch:     batch,
		Kind:      workload.KindServing,
		Priority:  1,
		Device:    device.GPUID(0),
		Saturated: true,
	}
}
