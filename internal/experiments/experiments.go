// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate. Each Figure*/Table* function
// returns the rows/series the paper plots; cmd/swbench prints them and
// bench_test.go wraps them as benchmarks. Iteration counts are
// parameterised so benchmarks can run reduced versions.
//
// Every simulated world is built in world.go, the package's one seam:
// newWorld (or onGPU) for a single machine under one scheduler,
// newSimulation for a world on the public facade, and newCluster for a
// fleet. Each hands the world's event buses to the observe hook before
// the world's first job exists, so a sink attached there sees every
// event of every world in the sweep. Table1 builds only a copy engine
// and runs nothing, so it has no world.
package experiments

import (
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/workload"
)

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
// experiments share on w: add the training job, let it run alone for 2s,
// add the serving job, then run until the serving job has completed
// requests requests or the virtual horizon passes.
func collocate(w *world, train, serve workload.Config, requests int, horizon time.Duration) collocation {
	trainJob := must(w.add(train))
	w.eng.RunUntil(2 * time.Second)
	serveJob := must(w.add(serve))
	start, startIters := w.eng.Now(), trainJob.Iterations
	w.runUntil(horizon, func() bool { return serveJob.Latencies.Count() >= requests })
	return collocation{
		serve:      serveJob,
		trainIters: trainJob.Iterations - startIters,
		window:     w.eng.Now() - start,
	}
}

// mustSpec resolves a model name; experiment tables only reference models
// in the zoo, so failure is a programming error.
func mustSpec(name string) *models.Spec { return must(models.ByName(name)) }

// paperGPU is device.PaperGPU for the names the experiments hard-code.
func paperGPU(name string) (device.GPUClass, device.CPUClass) {
	gpu, cpu, ok := device.PaperGPU(name)
	if !ok {
		panic("unknown GPU " + name)
	}
	return gpu, cpu
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
