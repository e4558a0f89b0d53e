package experiments

import (
	"time"

	"switchflow"
	"switchflow/internal/harness"
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

var chaosPolicies = []switchflow.Policy{
	switchflow.PolicySwitchFlow,
	switchflow.PolicyThreadedTF,
	switchflow.PolicyTimeSlice,
	switchflow.PolicyMPS,
}

// Chaos runs the fault sweep for each (policy, seed) cell on the parallel
// harness. Rows are deterministic for fixed seeds: every cell owns its
// engine, machine, and fault plan, so serial and parallel runs produce
// byte-identical output.
func Chaos(seeds []int64) []ChaosRow {
	type cell struct {
		policy switchflow.Policy
		seed   int64
	}
	var cells []cell
	for _, seed := range seeds {
		for _, policy := range chaosPolicies {
			cells = append(cells, cell{policy, seed})
		}
	}
	return harness.Map(cells, func(c cell) ChaosRow { return chaosCell(c.policy, c.seed) })
}

func chaosCell(policy switchflow.Policy, seed int64) ChaosRow {
	sim := newSimulation(switchflow.TwoGPUServer())
	// Seeded mix of transients and input stalls, plus a guaranteed loss of
	// gpu:0 at a fixed time so every row exercises the migrate-or-die path.
	plan := switchflow.RandomFaultPlan(seed, chaosHorizon, sim.GPUCount()).
		LoseGPU(chaosLossAt, 0)
	sched := must(sim.NewScheduler(policy,
		switchflow.WithFaultPlan(plan),
		switchflow.WithCheckpointEvery(chaosCkpt)))
	serve := must(sched.AddJob(switchflow.JobSpec{
		Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2,
		Placement:  switchflow.Placement{Fallbacks: []int{1}, AllowCPU: true},
		ServeEvery: 100 * time.Millisecond,
	}))
	train := must(sched.AddJob(switchflow.JobSpec{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true,
		Priority: 1, Placement: switchflow.Placement{Device: 1},
	}))
	sim.RunUntil(chaosHorizon)

	st := sched.FaultStats()
	row := ChaosRow{
		Scheduler:      sched.Name(),
		Seed:           seed,
		Injected:       st.Injected,
		Served:         serve.Requests(),
		ServeP95MS:     serve.P95Latency().Seconds() * 1e3,
		ServeAlive:     !serve.Crashed(),
		TrainIters:     train.Iterations(),
		JobsLost:       st.JobsLost,
		Migrations:     st.Migrations,
		Restarts:       st.Restarts,
		IterationsLost: st.IterationsLost,
	}
	if sf, ok := sched.(*switchflow.SwitchFlowScheduler); ok {
		row.ServeDevice = sf.JobDeviceName(serve)
	}
	return row
}
