package experiments

import (
	"time"

	"switchflow/internal/harness"
	"switchflow/internal/scenario"
)

// ChaosRow is one cell of the fault-injection sweep: a serving job with
// fallbacks collocated with a training job on the two-GPU server, under a
// seed-deterministic fault mix (random transient kernel/ECC errors and
// input stalls, plus one guaranteed GPU loss mid-run). SwitchFlow
// self-heals — the serving job migrates through its fallbacks and keeps
// serving — while the process-model baselines lose the jobs outright.
type ChaosRow struct {
	Scheduler string
	Seed      int64
	// Injected counts fault events delivered.
	Injected int
	// Served / ServeP95MS / ServeAlive describe the serving job at the end.
	Served     int
	ServeP95MS float64
	ServeAlive bool
	// ServeDevice is the serving job's final placement (SwitchFlow only;
	// empty for the baselines, which cannot move jobs).
	ServeDevice string
	// TrainIters is the training job's completed iterations.
	TrainIters int
	// Recovery counters (all zero for baselines except JobsLost).
	JobsLost       int
	Migrations     int
	Restarts       int
	IterationsLost int
}

const (
	chaosHorizon = 60 * time.Second
	chaosLossAt  = 20 * time.Second
	chaosCkpt    = 5 * time.Second
)

// chaosSchedulers are the scenario names of the four schedulers.
var chaosSchedulers = []string{"switchflow", "threaded", "timeslice", "mps"}

// Chaos runs the fault sweep for each (scheduler, seed) cell on the
// parallel harness. Rows are deterministic for fixed seeds: every cell
// owns its engine, machine, and fault plan, so serial and parallel runs
// produce byte-identical output. A zero seed draws no random faults.
func Chaos(seeds []int64) []ChaosRow {
	type cell struct {
		sched string
		seed  int64
	}
	var cells []cell
	for _, seed := range seeds {
		for _, sched := range chaosSchedulers {
			cells = append(cells, cell{sched, seed})
		}
	}
	return harness.Map(cells, func(c cell) ChaosRow { return chaosCell(c.sched, c.seed) })
}

func chaosCell(sched string, seed int64) ChaosRow {
	res := runScenario(scenario.Scenario{
		Machine: "2gpu", Scheduler: sched, DurationMillis: scenario.Millis(chaosHorizon),
		Jobs: []scenario.JobRequest{
			{Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2,
				FallbackGPUs: []int{1}, FallbackCPU: true, ServeEveryMS: 100},
			{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1, GPU: 1},
		},
		// A seeded mix of transients and input stalls, plus a guaranteed loss
		// of gpu:0 so every row exercises the migrate-or-die path.
		Faults: &scenario.FaultsRequest{Seed: seed, CheckpointEveryMillis: scenario.Millis(chaosCkpt),
			LoseGPUs: []scenario.LoseGPURequest{{GPU: 0, AtMillis: scenario.Millis(chaosLossAt)}}},
	}, nil)
	serve, train, st := res.Jobs[0], res.Jobs[1], res.Faults
	return ChaosRow{
		Scheduler:      res.Scheduler,
		Seed:           seed,
		Injected:       st.Injected,
		Served:         serve.Requests,
		ServeP95MS:     serve.P95Millis,
		ServeAlive:     !serve.Crashed,
		ServeDevice:    serve.Device,
		TrainIters:     train.Iterations,
		JobsLost:       st.JobsLost,
		Migrations:     st.Migrations,
		Restarts:       st.Restarts,
		IterationsLost: st.IterationsLost,
	}
}
